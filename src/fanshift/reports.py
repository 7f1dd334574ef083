"""Versioned JSON report emitted by every verification command."""

from __future__ import annotations

import json

SCHEMA_VERSION = "v1"

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "fanshift verification report",
    "type": "object",
    "required": ["schema_version", "name", "params", "pass", "witnesses", "timings"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "name": {"type": "string"},
        "params": {"type": "object"},
        "pass": {"type": "boolean"},
        "witnesses": {"type": "array"},
        "timings": {"type": "object"},
        "extra": {"type": "object"},
    },
    "additionalProperties": False,
}


def make_report(
    name: str, params: dict, passed: bool, witnesses: list, timings: dict, extra: dict
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "params": params,
        "pass": passed,
        "witnesses": witnesses,
        "timings": timings,
        "extra": extra,
    }


def dump_report(report: dict) -> str:
    """Stable text form: sorted keys, fixed indentation, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def schema_text() -> str:
    return json.dumps(REPORT_SCHEMA, sort_keys=True, indent=2) + "\n"
