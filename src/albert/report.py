"""Deterministic check reports shared by the suites and the CLI.

A report is an ordered list of (check id, verdict, details).  Given the same
scenario and seed the machine rendering is byte-identical; neither rendering
contains timestamps or other run-dependent data.
"""

from __future__ import annotations


class Report:
    def __init__(self):
        self.items = []

    def record(self, check_id, passed, details=""):
        self.items.append((check_id, bool(passed), str(details)))

    def extend(self, other, prefix):
        """Append the checks of ``other`` with ids under ``prefix``."""
        for check_id, passed, details in other.items:
            self.items.append((f"{prefix}:{check_id}", passed, details))

    @property
    def all_pass(self):
        return all(p for _, p, _ in self.items)

    @property
    def exit_status(self):
        return 0 if self.all_pass else 1

    def render_machine(self):
        out = []
        for check_id, passed, details in self.items:
            verdict = "PASS" if passed else "FAIL"
            suffix = f" {details}" if details else ""
            out.append(f"CHECK {check_id} {verdict}{suffix}")
        out.append(f"RESULT {'PASS' if self.all_pass else 'FAIL'}")
        return "\n".join(out) + "\n"

    def render_text(self):
        out = []
        width = max((len(c) for c, _, _ in self.items), default=0)
        for check_id, passed, details in self.items:
            verdict = "ok" if passed else "FAILED"
            suffix = f"  ({details})" if details else ""
            out.append(f"  {check_id.ljust(width)}  {verdict}{suffix}")
        summary = "all checks passed" if self.all_pass else "some checks FAILED"
        return "\n".join(out + [summary]) + "\n"

    def render(self, fmt="text"):
        return self.render_machine() if fmt == "machine" else self.render_text()
