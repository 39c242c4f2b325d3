"""``python -m repro.dagfuzz`` — the differential fuzzing driver.

Runs seed ranges through the full runtime stack across schedulers x
cache policies x datamove flag sets, checks every run against the
sequential oracle, and on failure prints a one-line replay command,
then greedily shrinks the workload to a minimal reproducer.

Matrix shape: ``--schedulers`` multiplies (every named policy runs for
every seed); the cache policy, machine and datamove dimensions *rotate*
per seed by default (seed i covers one point of each), so a seed range
sweeps the whole space without a combinatorial blowup.  Naming them
explicitly (``--cache-policies wt,wb``) switches that dimension to a
full cross product.

Typical invocations::

    python -m repro.dagfuzz --seeds 0:50 --schedulers all       # smoke
    python -m repro.dagfuzz --seeds 0:500 --profile all \\
        --schedulers all --cache-policies nocache,wt,wb \\
        --machines gpu1,gpu2,gpu4,cluster2 --datamove both      # long run
    python -m repro.dagfuzz --replay 1234 --profile deep \\
        --schedulers cp --cache-policies wb --machines gpu2     # one seed
    python -m repro.dagfuzz --seeds 0:30 --mutate drop_arc      # self-test
"""

from __future__ import annotations

import argparse
import sys

from ..runtime.config import SCHEDULERS, RuntimeConfig
from .generator import generate
from .mutations import MUTATIONS
from .profiles import PROFILES
from .runner import MACHINES, check_workload
from .shrink import shrink_trace

__all__ = ["main", "replay_command"]

_CACHES = ("wb", "wt", "nocache")
#: datamove flag sets: off = layer absent, on = every mechanism armed.
_DATAMOVE = {
    "off": {},
    "on": dict(wb_elision=True, cost_aware_eviction=True, presend_depth=1),
}


def _csv(value: str, universe, what: str):
    if value == "all":
        return tuple(universe)
    names = tuple(v.strip() for v in value.split(",") if v.strip())
    for name in names:
        if name not in universe:
            raise SystemExit(f"unknown {what} {name!r}; "
                             f"expected one of {', '.join(universe)}")
    return names


def replay_command(seed: int, profile: str, scheduler: str, cache: str,
                   machine: str, datamove: str, mutate=None) -> str:
    cmd = (f"python -m repro.dagfuzz --replay {seed} --profile {profile} "
           f"--schedulers {scheduler} --cache-policies {cache} "
           f"--machines {machine} --datamove {datamove}")
    if mutate:
        cmd += f" --mutate {mutate}"
    return cmd


def _configs(args):
    """The (scheduler, cache, machine, datamove) matrix per seed index."""
    schedulers = _csv(args.schedulers, SCHEDULERS, "scheduler")
    caches = (_csv(args.cache_policies, _CACHES, "cache policy")
              if args.cache_policies else None)
    machines = (_csv(args.machines, MACHINES, "machine")
                if args.machines else None)
    dm_modes = {"off": ("off",), "on": ("on",),
                "both": ("off", "on")}[args.datamove]

    def for_seed(i: int):
        cs = caches if caches else (_CACHES[i % len(_CACHES)],)
        ms = machines if machines else (("gpu1", "gpu2", "gpu4",
                                         "cluster2")[i % 4],)
        ds = dm_modes if args.datamove == "both" or caches or machines \
            else (dm_modes[i % len(dm_modes)],)
        for sched in schedulers:
            for cache in cs:
                for m in ms:
                    for dm in ds:
                        yield sched, cache, m, dm
    return for_seed


def _check(spec, sched, cache, machine, dm, mutate):
    cfg = RuntimeConfig(functional=True, scheduler=sched,
                        cache_policy=cache, **_DATAMOVE[dm])
    return check_workload(spec, machine=machine, config=cfg, mutate=mutate)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dagfuzz",
        description="Differential fuzzing of the OmpSs runtime "
                    "reproduction (see docs/DAGFUZZ.md).")
    parser.add_argument("--seeds", default="0:20", metavar="A:B",
                        help="half-open seed range (default 0:20)")
    parser.add_argument("--replay", type=int, metavar="SEED",
                        help="run exactly one seed (overrides --seeds)")
    parser.add_argument("--profile", default="default",
                        help="profile name or 'all' "
                             f"({', '.join(PROFILES)})")
    parser.add_argument("--schedulers", default="all",
                        help="comma list or 'all' "
                             f"({', '.join(SCHEDULERS)})")
    parser.add_argument("--cache-policies", default=None,
                        help="comma list or 'all' (default: rotate per "
                             "seed)")
    parser.add_argument("--machines", default=None,
                        help="comma list or 'all' (default: rotate per "
                             "seed)")
    parser.add_argument("--datamove", default="off",
                        choices=("off", "on", "both"),
                        help="datamove optimisation flags (default off)")
    parser.add_argument("--mutate", default=None, choices=sorted(MUTATIONS),
                        help="inject a known bug class (self-test: runs "
                             "are expected to FAIL)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    parser.add_argument("--list-profiles", action="store_true")
    args = parser.parse_args(argv)

    if args.list_profiles:
        for name, prof in PROFILES.items():
            print(f"{name:10s} ops={prof.ops} objects={prof.objects} "
                  f"nested={prof.p_nested:g} cuda={prof.p_cuda:g} "
                  f"inout={prof.p_inout:g} waits={prof.p_wait_on:g}")
        return 0

    if args.replay is not None:
        seeds = [args.replay]
    else:
        try:
            lo, hi = (int(p) for p in args.seeds.split(":"))
        except ValueError:
            raise SystemExit(f"bad --seeds {args.seeds!r}; expected A:B")
        seeds = list(range(lo, hi))
    profiles = (list(PROFILES) if args.profile == "all"
                else list(_csv(args.profile, PROFILES, "profile")))
    for_seed = _configs(args)

    runs = failures = 0
    first_failure = None
    for seed in seeds:
        for profile in profiles:
            spec = generate(seed, profile)
            for sched, cache, machine, dm in for_seed(seed):
                res = _check(spec, sched, cache, machine, dm, args.mutate)
                runs += 1
                if res.ok:
                    continue
                failures += 1
                print(f"FAIL seed={seed} profile={profile} "
                      f"scheduler={sched} cache={cache} machine={machine} "
                      f"datamove={dm}"
                      + (f" mutate={args.mutate}" if args.mutate else ""))
                print(f"  {res.describe()}")
                print("  replay: " + replay_command(
                    seed, profile, sched, cache, machine, dm, args.mutate))
                if first_failure is None:
                    first_failure = (spec, sched, cache, machine, dm)

    if failures and not args.no_shrink:
        spec, sched, cache, machine, dm = first_failure
        small, (before, after) = shrink_trace(
            spec, lambda s: not _check(s, sched, cache, machine, dm,
                                       args.mutate).ok)
        print(f"shrunk first failure: {before} -> {after} task(s)")
        for i, op in enumerate(small.ops):
            print(f"  op{i}: {op}")

    word = "mutated run(s)" if args.mutate else "run(s)"
    print(f"dagfuzz: {runs} {word}, {failures} failure(s), "
          f"{len(seeds)} seed(s), profiles={','.join(profiles)}")
    return 1 if failures else 0


if __name__ == "__main__":                        # pragma: no cover
    sys.exit(main())
