"""Inline suppression pragmas.

Two forms, both comments:

* same-line: ``x = random.random()  # kyotolint: disable=D001`` silences
  the listed rules (comma-separated, or ``all``) on that line only —
  for a construct spanning several physical lines (a parenthesized
  expression, a call broken across lines) the pragma may sit on *any*
  line of the construct's span;
* file-level: ``# kyotolint: disable-file=U002`` anywhere in the file
  silences the listed rules for the whole file.  Both forms may share a
  line (``# kyotolint: disable=D001  # kyotolint: disable-file=U002``);
  each is parsed independently.

A pragma is a *justified* suppression: it lives in the code next to the
violation, so reviewers see it.  Give every pragma a trailing
justification comment.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Set

# `disable` must not swallow `disable-file`: the lookahead requires `=`
# immediately after the keyword, and the file form is matched first on
# each line so the two coexist in either order.
_LINE_PRAGMA_RE = re.compile(
    r"#\s*kyotolint:\s*disable=([A-Za-z0-9,\s]+?)\s*(?:#|$)"
)
_FILE_PRAGMA_RE = re.compile(
    r"#\s*kyotolint:\s*disable-file=([A-Za-z0-9,\s]+?)\s*(?:#|$)"
)


def _parse_rule_list(raw: str) -> Set[str]:
    return {part.strip().upper() for part in raw.split(",") if part.strip()}


class PragmaTable:
    """Suppression state extracted from one file's source text."""

    def __init__(self, source: str = "") -> None:
        self.line_disables: Dict[int, Set[str]] = {}
        self.file_disables: Set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            for match in _LINE_PRAGMA_RE.finditer(text):
                self.line_disables.setdefault(lineno, set()).update(
                    _parse_rule_list(match.group(1))
                )
            for match in _FILE_PRAGMA_RE.finditer(text):
                self.file_disables.update(_parse_rule_list(match.group(1)))

    def is_suppressed(
        self, rule_id: str, line: int, end_line: Optional[int] = None
    ) -> bool:
        """True when ``rule_id`` is pragma-disabled anywhere in the span.

        ``end_line`` extends the check over a multi-line construct so a
        pragma on a continuation line still applies; omitted, only
        ``line`` itself is consulted.
        """
        if rule_id in self.file_disables or "ALL" in self.file_disables:
            return True
        last = max(line, end_line or line)
        for candidate in range(line, last + 1):
            disabled = self.line_disables.get(candidate)
            if disabled and (rule_id in disabled or "ALL" in disabled):
                return True
        return False
