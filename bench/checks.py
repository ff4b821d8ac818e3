"""Output checks applied to every benchmark request, outside its timed region.

A request passes when it exits 0, prints JSON that validates against the
package's output schema, reports ``agree: true`` with ``comparedWeights > 0``
if it is an oracle request, and, for the default seed, prints exactly the
bytes whose SHA-256 is stored in ``golden.json``.  The golden digests are the
byte-identical-output gate for refactors.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

from bench.workloads import is_oracle_request

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_golden(workload: str):
    """[(argv, sha256)] for the default seed, or None if none are stored."""
    if not GOLDEN_PATH.is_file():
        return None
    rows = json.loads(GOLDEN_PATH.read_text())["workloads"].get(workload)
    return None if rows is None else [(r["argv"], r["sha256"]) for r in rows]


class Checker:
    """Validates request outputs; ``golden`` is [(argv, sha256)] or None."""

    def __init__(self, schema_path: Path, golden=None):
        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.golden = golden

    def problems(self, index, argv, code, stdout, error):
        """List of reasons the request failed; empty when it passed."""
        if error is not None:
            return [f"raised {error}"]
        if code != 0:
            return [f"exit code {code}"]
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        found = [f"schema: {e.message}" for e in self.validator.iter_errors(payload)]
        if is_oracle_request(argv):
            report = payload.get("oracle", payload)
            if report.get("agree") is not True:
                found.append("oracle disagrees")
            if not report.get("comparedWeights", 0) > 0:
                found.append("oracle compared no weights")
        if self.golden is not None:
            if index >= len(self.golden) or self.golden[index][0] != argv:
                found.append("request differs from the golden request list")
            elif self.golden[index][1] != digest(stdout):
                found.append("output differs from the golden digest")
        return found
