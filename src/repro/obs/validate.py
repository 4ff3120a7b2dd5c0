"""Chrome trace-event schema validation.

Checks the structural contract Perfetto's JSON importer relies on:
event objects with known phases, numeric timestamps, pid/tid routing,
numeric counter values, and balanced ``b``/``e`` async span pairs.
:func:`repro.obs.export.read_chrome_trace`, the one trace reader,
rejects any trace this finds a problem in, so ``repro report``,
``explain`` and ``diff`` never analyze a malformed file.
"""

from __future__ import annotations

from typing import List

#: Event phases repro.obs emits (a subset of the trace-event spec).
KNOWN_PHASES = {"B", "E", "X", "i", "I", "C", "b", "e", "n", "M"}


def validate_events(events: List[dict]) -> List[str]:
    """Structural problems found in a trace-event list (empty = valid)."""
    problems: List[str] = []
    open_spans = {}
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            problems.append(f"{where}: unknown ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing/non-string name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing/non-int {key}")
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: missing/non-numeric ts")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: counter without args")
            elif not all(isinstance(v, (int, float))
                         for v in args.values()):
                problems.append(f"{where}: non-numeric counter value")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant without scope s")
        if phase in ("b", "e"):
            if "id" not in event or "cat" not in event:
                problems.append(f"{where}: async event without id/cat")
                continue
            key = (event["pid"], event["cat"], event["id"],
                   event["name"])
            if phase == "b":
                open_spans[key] = open_spans.get(key, 0) + 1
            else:
                if open_spans.get(key, 0) <= 0:
                    problems.append(f"{where}: 'e' without matching 'b'"
                                    f" for {key}")
                else:
                    open_spans[key] -= 1
    dangling = {k: n for k, n in open_spans.items() if n > 0}
    if dangling:
        problems.append(f"{len(dangling)} async span(s) never closed:"
                        f" {sorted(dangling)[:3]}...")
    return problems
