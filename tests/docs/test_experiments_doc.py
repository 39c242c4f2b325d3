"""EXPERIMENTS.md prints the pinned numbers, at the precision it prints.

Every figure table, every ablation number and every ratio or percentage
quoted beside them is compared with ``benchmarks/figure_points.json``
(Table I with the live line counts, which need no simulation).  A re-pin
that moves a published number therefore fails here until EXPERIMENTS.md
is updated in the same change.  Approximate prose (``~0.7×``, ``≈ 20
kernel-times``) and numbers that are not figure points (MB of traffic,
model constants) are not quoted numbers in this sense.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.bench.figures import FIGURES, collect_figure
from repro.bench.loc import table1_rows

from ..bench.pins import PINS, at

ROOT = Path(__file__).resolve().parents[2]
DOC = (ROOT / "EXPERIMENTS.md").read_text()
SECTIONS = {head.strip(): body for head, body in
            re.findall(r"^## (.*)\n((?:(?!^## ).*\n)*)", DOC, re.M)}
#: every figure section, keyed by its FIGURES name ("Figure 5 — ..." -> fig5)
FIGURE_SECTIONS = {name: body for head, body in SECTIONS.items()
                   for name, row in FIGURES.items()
                   if head.startswith(row.figure + " ")}
PROSE = " ".join(DOC.split())


def table(body: str) -> "list[list[str]]":
    """The first markdown table in ``body``: header, then rows."""
    lines = [line for line in body.splitlines() if line.startswith("|")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines]
    return [rows[0]] + rows[2:]


def series_of(cell: str, names: "list[str]") -> "list[str]":
    """The series a row label names: ``a / b`` merges rows,
    ``nocache-(any sched)`` is every ``nocache-`` series, and a trailing
    ``(…)`` is a comment (``ompss-best (StoS, smp, …)``)."""
    every = re.fullmatch(r"(.+)-\(any[^)]*\)", cell)
    if every:
        return [n for n in names if n.startswith(every.group(1) + "-")]
    return [re.sub(r"\s*\(.*\)$", "", part) for part in cell.split(" / ")]


def printed(value: float, text: str) -> bool:
    """``value`` prints as ``text`` at ``text``'s precision."""
    decimals = len(text.partition(".")[2])
    return f"{value:.{decimals}f}" == text


def test_every_paper_figure_has_a_table():
    assert set(FIGURE_SECTIONS) == set(FIGURES) - {"fig-irr"}


@pytest.mark.parametrize("name", sorted(FIGURE_SECTIONS))
def test_figure_table_matches_the_pins(name):
    result = collect_figure(name, PINS)
    header, *rows = table(FIGURE_SECTIONS[name])
    assert [col.split()[0] for col in header[1:]] == [
        str(x) for x in result.xs]
    wrong = []
    for label, *cells in rows:
        names = series_of(label, list(result.series))
        assert names and set(names) <= set(result.series), label
        for x, cell in zip(result.xs, cells):
            values = cell.replace("**", "").split(" / ")
            if len(values) == 1:
                values *= len(names)
            assert len(values) == len(names), (label, cell)
            wrong += [f"{series}@{x}: printed {text}, pinned "
                      f"{at(result, series, x)}"
                      for series, text in zip(names, values)
                      if not printed(at(result, series, x), text)]
    assert wrong == []


def test_table1_matches_the_line_counts():
    _header, *rows = table(next(body for head, body in SECTIONS.items()
                                if head.startswith("Table I ")))
    counted = {row["app"]: row for row in table1_rows()}
    assert [r[0] for r in rows] == list(counted)
    for app, serial, *versions in (r[:5] for r in rows):
        row = counted[app]
        assert int(serial) == row["serial"], app
        for version, cell in zip(("cuda", "mpi_cuda", "ompss"), versions):
            assert cell == (f"{row[version]} "
                            f"({row[version + '_pct']:+.0f}%)"), (app, cell)


#: every ``**Paper:**`` paragraph: the paper's claim for one figure/table
CLAIMS = re.findall(r"^\*\*Paper:\*\*(?:.+\n)+", DOC, re.M)


def test_every_paper_claim_names_the_test_that_asserts_it():
    assert len(CLAIMS) == len(FIGURE_SECTIONS) + 1       # + Table I
    missing = []
    for claim in CLAIMS:
        checks = re.findall(r"`(tests/[\w/]+\.py)::(\w+)`", claim)
        if not checks:
            missing.append(claim.splitlines()[0])
        for path, name in checks:
            source = ROOT / path
            if not (source.is_file() and any(
                    isinstance(node, ast.FunctionDef) and node.name == name
                    for node in ast.parse(source.read_text()).body)):
                missing.append(f"{path}::{name}")
    assert missing == []


def metric(label: str) -> float:
    return PINS[label]["metric"]


def ratio(a: str, b: str) -> float:
    return metric(a) / metric(b)


def gain(a: str, b: str) -> float:
    """How many percent ``a`` is above ``b``."""
    return 100 * (ratio(a, b) - 1)


def mpi_over_cuda() -> "list[float]":
    rows = table1_rows()
    return [min(r["mpi_cuda"] / r["cuda"] for r in rows),
            max(r["mpi_cuda"] / r["cuda"] for r in rows)]


def wb_over(policy: str) -> "list[float]":
    """Fig. 6: write-back over ``policy``, default/affinity, every count."""
    gains = [ratio(f"fig6/wb-{s}@{g}", f"fig6/{policy}-{s}@{g}")
             for s in ("default", "affinity") for g in (1, 2, 4)]
    return [min(gains), max(gains)]


#: id -> (a pattern over the whitespace-collapsed doc, the values its
#: groups quote, in order)
QUOTED = {
    "fig5 bf gap": (r"wb-default is ([\d.]+)× wb-bf",
                    lambda: [ratio("fig5/wb-default@4", "fig5/wb-bf@4")]),
    "fig6 wb over wt": (r"wb is (\d+)–(\d+)× wt and",
                        lambda: wb_over("wt")),
    "fig6 wb over nocache": (r"and (\d+)–(\d+)× nocache",
                             lambda: wb_over("nocache")),
    "fig7 noflush scaling": (
        r"scales ([\d.]+)× across 1→4 GPUs",
        lambda: [ratio("fig7/noflush-wb@4", "fig7/noflush-wb@1")]),
    "fig8 nocache gain": (r"beats write-back by (\d+)% at 4 GPUs",
                          lambda: [gain("fig8/nocache@4", "fig8/wb@4")]),
    "fig8 scaling": (r"scales ([\d.]+)× from 2→4 GPUs",
                     lambda: [ratio("fig8/nocache@4", "fig8/nocache@2")]),
    "fig9 stos": (r"StoS-smp-ps4 = ([\d.]+)× MtoS-smp-ps4",
                  lambda: [ratio("fig9/StoS-smp-ps4@8",
                                 "fig9/MtoS-smp-ps4@8")]),
    "fig9 init": (r"smp init = ([\d.]+)× seq",
                  lambda: [ratio("fig9/StoS-smp-ps4@8",
                                 "fig9/StoS-seq-ps4@8")]),
    "fig9 smp vs gpu": (r"smp > gpu \((\d+) vs (\d+)\)",
                        lambda: [metric("fig9/StoS-smp-ps4@8"),
                                 metric("fig9/StoS-gpu-ps4@8")]),
    "fig9 presend": (r"ps4 = ([\d.]+)× ps0",
                     lambda: [ratio("fig9/StoS-smp-ps4@8",
                                    "fig9/StoS-smp-ps0@8")]),
    "fig10 crossover": (
        r"MPI \+(\d+)% at 2; OmpSs \+(\d+)% at 4",
        lambda: [gain("fig10/mpi+cuda@2", "fig10/ompss-best@2"),
                 gain("fig10/ompss-best@4", "fig10/mpi+cuda@4")]),
    "fig10 one node": (r"at 1 node OmpSs is (\d+)% ahead",
                       lambda: [gain("fig10/ompss-best@1",
                                     "fig10/mpi+cuda@1")]),
    "fig11 scaling": (r"OmpSs ([\d.]+)×, MPI ([\d.]+)× over 1→8 nodes",
                      lambda: [ratio("fig11/ompss@8", "fig11/ompss@1"),
                               ratio("fig11/mpi+cuda@8",
                                     "fig11/mpi+cuda@1")]),
    "fig12 noflush scaling": (
        r"NoFlush scales ([\d.]+)×",
        lambda: [ratio("fig12/ompss-noflush@8", "fig12/ompss-noflush@1")]),
    "fig13 gain": (r"OmpSs \+(\d+)% at 8",
                   lambda: [gain("fig13/ompss@8", "fig13/mpi+cuda@8")]),
    "fig13 scaling": (r"scaling ([\d.]+)× vs MPI ([\d.]+)×",
                      lambda: [ratio("fig13/ompss@8", "fig13/ompss@1"),
                               ratio("fig13/mpi+cuda@8",
                                     "fig13/mpi+cuda@1")]),
    "table1 mpi over cuda": (r"by ([\d.]+)–([\d.]+)× over plain CUDA",
                             mpi_over_cuda),
    "ablation overlap": (
        r"baseline (\d+), overlap-only (\d+), prefetch-only (\d+) .*?"
        r"both combined (\d+) GFLOP/s",
        lambda: [metric(f"ablation/{s}@4")
                 for s in ("baseline", "overlap", "prefetch", "both")]),
    "ablation stealing": (
        r"identical with and without on a balanced matmul "
        r"\((\d+) GFLOP/s\)",
        lambda: [metric("ablation/steal@4")]),
    "ablation no stealing": (
        r"identical with and without on a balanced matmul "
        r"\((\d+) GFLOP/s\)",
        lambda: [metric("ablation/no_steal@4")]),
    "ablation presend": (
        r"(\d+) → (\d+) → (\d+) → (\d+) GFLOP/s for windows 0/1/2/4",
        lambda: [metric(f"ablation/presend@{ps}") for ps in (0, 1, 2, 4)]),
    "ablation stos": (
        r"(\d+) vs (\d+) GFLOP/s — master NIC serialization costs "
        r"([\d.]+)×",
        lambda: [metric("ablation/stos@8"), metric("ablation/mtos@8"),
                 ratio("ablation/stos@8", "ablation/mtos@8")]),
}


@pytest.mark.parametrize("key", list(QUOTED))
def test_quoted_number_matches_the_pins(key):
    pattern, values = QUOTED[key]
    found = re.search(pattern, PROSE)
    assert found, f"{key}: {pattern!r} is not in EXPERIMENTS.md"
    texts, expected = found.groups(), values()
    assert len(texts) == len(expected)
    assert [printed(v, t) for v, t in zip(expected, texts)] == [
        True] * len(texts), f"{key}: printed {texts}, pinned {expected}"
