#!/usr/bin/env python3
"""Soak-resume gate: a run journal holds the report's own cells.

Usage: check_journal.py JOURNAL REPORT

JOURNAL is a `sweep --journal` or `--cache` file, REPORT the
`nachos-sweep-v4` report of the same matrix. Every line of JOURNAL must
carry a valid `<16-hex FNV-1a> <payload>` checksum frame around a
`nachos-journal-v3` record, and the record's `run` object must equal the
report's cell for the same (job, variant), compared as parsed JSON.

A `kill -9` during an append can tear the line being written, and replay
skips such a line, so one line that fails its checksum is reported and
tolerated. Anything else exits 1.
"""

import json
import sys

SCHEMA = "nachos-journal-v3"
TORN_LINES_ALLOWED = 1


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def unframe(line):
    """The payload of a framed line, or None when the frame fails."""
    checksum, _, payload = line.partition(b" ")
    if len(checksum) != 16:
        return None
    try:
        want = int(checksum, 16)
    except ValueError:
        return None
    return payload if fnv1a(payload) == want else None


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    journal_path, report_path = sys.argv[1:]
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    cells = {
        (job["name"], run["variant"]): run
        for job in report["jobs"]
        for run in job["runs"]
    }
    errors, torn, checked = [], 0, 0
    with open(journal_path, "rb") as f:
        for n, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            payload = unframe(line)
            if payload is None:
                torn += 1
                print(f"{journal_path}:{n}: checksum frame fails (torn line?)")
                continue
            record = json.loads(payload)
            where = f"{journal_path}:{n}"
            if record.get("journal") != SCHEMA:
                errors.append(f"{where}: schema {record.get('journal')!r}, want {SCHEMA!r}")
                continue
            run = record.get("run", {})
            cell = cells.get((record.get("job"), run.get("variant")))
            if cell is None:
                errors.append(f"{where}: no report cell for {record.get('job')} [{run.get('variant')}]")
            elif run != cell:
                errors.append(f"{where}: run object differs from the report's cell")
            checked += 1
    if torn > TORN_LINES_ALLOWED:
        errors.append(f"{journal_path}: {torn} lines fail their checksum frame")
    if checked == 0:
        errors.append(f"{journal_path}: no records")
    for e in errors:
        print(e)
    print(f"{journal_path}: {checked} records checked against {report_path}, {torn} torn")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
