"""``python -m repro.sanitizer`` — check apps (or the seeded fixtures).

Runs each named app functionally at test size under an installed
sanitizer and prints one report per app.  Exit status is 0 when every
checked app is clean, 1 otherwise — which is what the CI sanitizer-smoke
job keys on.  ``--fixtures`` instead runs the intentionally misannotated
fixture apps and exits 0 only when each produced *exactly* its expected
findings (the checker catching the seeded bugs is the passing outcome).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..bench.harness import fresh_cluster, fresh_multi_gpu, run_app
from ..runtime.config import RuntimeConfig
from ..service.job import APPS
from ..service.runner import build_size
from .core import Sanitizer, install
from .report import render_report

__all__ = ["main"]


def _check_app(name: str, machine: str, count: int) -> Sanitizer:
    if name not in APPS:
        raise SystemExit(f"unknown app {name!r} (choose from "
                         f"{', '.join(APPS)})")
    with install() as san:
        # Functional (the default config): bodies must actually run.
        run_app(name, "ompss", machine, count, build_size(name, None),
                RuntimeConfig(), {})
    return san


def _as_json(per_target: dict[str, Sanitizer]) -> str:
    doc = {target: [f.to_dict() for f in san.findings()]
           for target, san in per_target.items()}
    return json.dumps(doc, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description="Dynamic annotation checker: run apps under the "
                    "sanitizer and report clause/race findings.")
    parser.add_argument("apps", nargs="*", metavar="app",
                        help=f"apps to check (default: all of "
                             f"{' '.join(APPS)})")
    parser.add_argument("--nodes", type=int, default=1,
                        help="run on an N-node GPU cluster instead of one "
                             "multi-GPU node")
    parser.add_argument("--gpus", type=int, default=2,
                        help="GPUs per node for the single-node machine")
    parser.add_argument("--fixtures", action="store_true",
                        help="check the seeded misannotated fixtures "
                             "instead of apps (exit 0 iff each yields "
                             "exactly its expected findings)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable findings on stdout")
    args = parser.parse_args(argv)

    # The hardware shape as run_app and a service JobRequest spell it.
    machine, count = (("cluster", args.nodes) if args.nodes > 1
                      else ("multi_gpu", args.gpus))
    per_target: dict[str, Sanitizer] = {}
    failed = False
    if args.fixtures:
        from .fixtures import EXPECTED, FIXTURES, run_fixture
        for name in FIXTURES:
            san = run_fixture(name, (fresh_cluster if machine == "cluster"
                                     else fresh_multi_gpu)(count))
            per_target[name] = san
            got = {(f.kind, f.task, f.obj) for f in san.findings()}
            ok = got == EXPECTED[name]
            failed = failed or not ok
            if not args.as_json:
                print(render_report(san.findings(), title=f"fixture {name}"))
                print(f"   expected findings {'matched' if ok else 'MISSED'}")
    else:
        for name in (args.apps or APPS):
            san = _check_app(name, machine, count)
            per_target[name] = san
            failed = failed or bool(san.findings())
            if not args.as_json:
                print(render_report(san.findings(), title=name))
    if args.as_json:
        print(_as_json(per_target))
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
