"""Correctness tooling: static sim-safety linting + runtime sanitizing.

Two complementary passes over the same invariants (DESIGN.md
§"Correctness tooling"):

* :mod:`repro.analysis.simcheck` — ``repro lint``, an AST linter whose
  SIM001–SIM007 rules catch determinism and resource-lifetime hazards
  (wall-clock in sim code, unseeded RNGs, unordered scheduling,
  uncancelled timer tokens, unreleased pool packets, swallowed errors,
  process-wide counters)
  before they run.
* :mod:`repro.analysis.sanitizer` — ``REPRO_SANITIZE=1`` /
  ``Simulator(sanitize=True)``, a runtime hook layer that proves at run
  time what the AST cannot: double releases, end-of-run leaks with
  allocation sites, clock monotonicity, and an event-stream digest for
  cross-run divergence detection.
"""

from repro.analysis.digest import EventDigest
from repro.analysis.findings import Finding, findings_to_json, format_findings
from repro.analysis.rules import RULES, FileContext, Rule, register_rule
from repro.analysis.sanitizer import SanitizerError, SimSanitizer, sanitize_enabled
from repro.analysis.simcheck import (
    DEFAULT_ALLOWLIST,
    is_allowlisted,
    iter_python_files,
    lint_paths,
    lint_source,
)

__all__ = [
    "DEFAULT_ALLOWLIST",
    "EventDigest",
    "FileContext",
    "Finding",
    "RULES",
    "Rule",
    "SanitizerError",
    "SimSanitizer",
    "findings_to_json",
    "format_findings",
    "is_allowlisted",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register_rule",
    "sanitize_enabled",
]
