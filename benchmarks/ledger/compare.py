"""Compare two ledger result files of the same seed: do they agree?

    python benchmarks/ledger/compare.py A.json B.json

``A`` and ``B`` are files written by ``run.py`` (all five workloads).  For
every workload:

* simulated-clock and count metrics must be *identical*;
* each host-clock end-to-end metric, and on their own workload the fuzz /
  service rates and latencies, is judged against a tenth
  (``catalog.HOST_BOUND``): ``agree``, ``differs``, or ``unresolved`` when
  the spread of the repetitions inside either file — first to third
  quartile over the median — is wider than that.  Only the ones in
  ``catalog.GATED_HOST`` are gated; the others were demoted because sets of
  the same code did not repeat them within the tenth, and are reported;
* the other per-layer host-clock metrics are listed when they moved by more
  than a tenth, never gated.

Exit status: 0 when every gated metric agrees, 1 on any disagreement, 2 when
nothing disagrees but a gated metric is unresolved.
"""

from __future__ import annotations

import json
import sys

from catalog import (END_TO_END, GATED_HOST, HOST_BOUND, OWN_WORKLOAD,
                     PER_LAYER, is_exact, relative_spread)


def spread(entry: dict) -> float:
    """Spread of the repetitions kept in a result entry (0 when only the
    value was kept)."""
    return relative_spread(entry.get("samples", ()))


def judge(a: dict, b: dict, better: str) -> str:
    if max(spread(a), spread(b)) > HOST_BOUND:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    if abs(change) <= HOST_BOUND:
        return "agree"
    worse = (change > 0) == (better == "lower")
    return f"differs ({change:+.1%}, {'worse' if worse else 'better'})"


def compare(doc_a: dict, doc_b: dict) -> "tuple[int, int]":
    """Print one line per judged metric that does not agree, and the counts;
    returns (disagreements, unresolved) among the gated metrics."""
    disagree = unresolved = agreed = reported = 0
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"][name]
        rows = [(key, a["end_to_end"][key], b["end_to_end"][key],
                 spec["better"]) for key, spec in END_TO_END.items()]
        rows += [(key, a["per_layer"][key], b["per_layer"][key],
                  PER_LAYER[key]["better"])
                 for key, owner in OWN_WORKLOAD.items() if owner == name]
        for key, ea, eb, better in rows:
            verdict = judge(ea, eb, better)
            gated = key in GATED_HOST
            if verdict == "agree":
                agreed += gated
                continue
            if gated:
                unresolved += verdict == "unresolved"
                disagree += verdict != "unresolved"
            else:
                reported += 1
            print(f"{name:16s} {key:22s} {ea['value']:14.6g} -> "
                  f"{eb['value']:14.6g} {ea['unit']:5s} "
                  f"spread {spread(ea):.1%} / {spread(eb):.1%}  "
                  f"{'DISAGREE: ' if gated else 'demoted, not gated: '}"
                  f"{verdict}")
        moved = []
        for key in PER_LAYER:
            va = a["per_layer"][key]["value"]
            vb = b["per_layer"][key]["value"]
            if is_exact(key, name):
                if va != vb:
                    disagree += 1
                    print(f"{name:16s} {key:40s} {va!r} -> {vb!r}  "
                          f"DISAGREE (must be identical)")
                else:
                    agreed += 1
            elif key not in OWN_WORKLOAD and va and \
                    abs(vb - va) / va > HOST_BOUND:
                moved.append(f"{key} {(vb - va) / va:+.0%}")
        if moved:
            print(f"{name:16s} not gated, moved by more than a tenth: "
                  + ", ".join(moved))
    print(f"gated: {agreed} agree, {disagree} disagree, {unresolved} "
          f"unresolved; demoted host-clock metrics not agreeing: {reported}")
    return disagree, unresolved


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip())
        return 64
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    if docs[0]["smoke"] != docs[1]["smoke"] or \
            docs[0]["seed"] != docs[1]["seed"]:
        print("compare: the two files differ in --seed or --smoke; "
              "the simulated clock is only comparable between equal inputs")
        return 64
    disagree, unresolved = compare(*docs)
    return 1 if disagree else 2 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
