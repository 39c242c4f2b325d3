"""The reachability scan's table, checked without running the scan.

``python -m tests.reachability`` (the CI ``bench`` job) runs the entry
points; here tier-1 checks what needs no run: every ``KEEP`` key names a
function under ``src/repro``, every reason names its category, and a
function is matched on the line its code object reports.
"""

import cProfile
import importlib.util

from tests.reachability import (CATEGORIES, KEEP, functions,
                                reached_lines)


def test_every_keep_key_names_a_function():
    names = {f.key for f in functions()}
    assert sorted(key for key in KEEP if key not in names) == []


def test_every_keep_reason_starts_with_a_category():
    bad = {key: reason for key, reason in KEEP.items()
           if reason.partition(": ")[0] not in CATEGORIES
           or not reason.partition(": ")[2].strip()}
    assert bad == {}


def test_function_keys_are_unique():
    keys = [f.key for f in functions()]
    assert sorted(k for k in set(keys) if keys.count(k) > 1) == []


def test_a_decorated_function_is_keyed_on_its_first_decorator(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "import functools\n"
        "\n"
        "\n"
        "class C:\n"
        "    @property\n"
        "    def p(self):\n"
        "        return 1\n"
        "\n"
        "    @staticmethod\n"
        "    @functools.lru_cache(maxsize=None)\n"
        "    def s():\n"
        "        return 2\n"
        "\n"
        "    def unused(self):\n"
        "        return 3\n")
    spec = importlib.util.spec_from_file_location("pkg.mod", pkg / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    found = {f.key: f for f in functions(pkg)}
    assert (found["pkg.mod:C.p"].first, found["pkg.mod:C.s"].first) == (5, 9)

    profile = cProfile.Profile()
    profile.enable()
    assert (mod.C().p, mod.C.s()) == (1, 2)
    profile.disable()
    reached = reached_lines(profile)
    assert {key for key, f in found.items()
            if (f.path, f.first) in reached} == {"pkg.mod:C.p", "pkg.mod:C.s"}
