"""kyotolint: repo-specific static analysis plus runtime contracts.

The reproduction's credibility rests on two properties no general-purpose
linter checks: **determinism** (every stochastic stream derives from
``(seed, name)``; nothing reads the wall clock or leaks set order into
results) and **unit correctness** (equation 1 mixes kHz, cycles and
milliseconds — by conversion, never by accident).  ``kyotolint`` enforces
both statically over the AST (:mod:`repro.lint.walker`,
:mod:`repro.lint.rules`) and dynamically via invariant contracts
(:mod:`repro.lint.contracts`).

This package deliberately re-exports nothing: the simulator imports
:mod:`repro.lint.contracts`, and an import here would load the whole
analyzer into every simulation process.  Run the analyzer as
``repro lint [paths] [--format json]``, or programmatically::

    from repro.lint.report import exit_code
    from repro.lint.walker import lint_paths

    findings = lint_paths(["src/repro"])
    assert exit_code(findings) == 0
"""
