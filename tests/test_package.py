"""The package's top-level surface: exactly the names README's "Library use"
section documents and the benchmark reaches through the package, and the
README's example block, run with each commented result checked. Also the
value classes' frozen-dataclass behaviour, and what a fresh command imports."""

import ast
import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seqforge
from seqforge.discovery import RecurrenceReport
from seqforge.fasteval import EvalMode, LinearRecurrence, _DecimalMode
from seqforge.identities import IdentityReport
from seqforge.recurrences import SequenceWindow
from seqforge.subsets import Condition

SURFACE = [
    "Condition",
    "count_subsets",
    "condition_count",
    "condition_gf",
    "fibonacci",
    "even_gap_family_size",
    "min_size_odd_gap_count",
    "min_size_odd_gap_seq",
    "window",
    "LinearRecurrence",
    "EvalMode",
    "eval_fast",
    "schreier_zeckendorf_count",
    "tail_recurrence_of",
    "berlekamp_massey",
    "check_fib_h",
]

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_all_is_the_documented_surface():
    assert seqforge.__all__ == SURFACE
    for name in SURFACE:
        assert getattr(seqforge, name).__module__.startswith("seqforge."), name
    star = {}
    exec("from seqforge import *", star)
    assert set(star) - {"__builtins__"} == set(SURFACE)


def test_readme_names_every_export():
    section = library_section()
    for name in SURFACE:
        assert re.search(rf"\b{name}\b", section), name


def test_readme_library_block_runs():
    # Each line ending in "# value" (or "# value, remark") is an expression
    # whose result must equal that value.
    block = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    namespace, pending, checked = {}, [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            want = ast.literal_eval(comment.split(",")[0].strip())
        assert eval(code, namespace) == want, line
        checked.append(want)
    exec("\n".join(pending), namespace)
    assert checked == [6, 6, ((1, 1), (1, -1, -1)), (2, 3, 5, 8, 13), 21, (1, 0, 1), True]


# (class, every field positionally, the same value by keyword with the
# defaults left out, keywords for a value one field away, the repr)
VALUES = [
    (
        Condition, (2, None, "any", 0, None), {"alpha": 2}, {"alpha": 2, "forced_max": 5},
        "Condition(alpha=2, beta=None, gap_parity='any', min_size=0, forced_max=None)",
    ),
    (
        LinearRecurrence, ((1, 1), (0, 1), 0), {"coeffs": [1, 1], "initials": [0, 1]},
        {"coeffs": (1, 1), "initials": (0, 1), "valid_from": 2},
        "LinearRecurrence(coeffs=(1, 1), initials=(0, 1), valid_from=0)",
    ),
    (EvalMode, (None,), {}, {"modulus": 7}, "EvalMode(modulus=None)"),
    (_DecimalMode, (None,), {}, {"modulus": 7}, "_DecimalMode(modulus=None)"),
    (
        SequenceWindow, ("fib", 0, (0, 1, 1)), {"name": "fib", "offset": 0, "terms": [0, 1, 1]},
        {"name": "fib", "offset": 1, "terms": (0, 1, 1)},
        "SequenceWindow(name='fib', offset=0, terms=(0, 1, 1))",
    ),
    (
        IdentityReport, ("fib-h", (0, 5), None),
        {"identity_id": "fib-h", "range_checked": (0, 5)},
        {"identity_id": "fib-h", "range_checked": (0, 5), "first_counterexample": (3, 2, 1)},
        "IdentityReport(identity_id='fib-h', range_checked=(0, 5), first_counterexample=None)",
    ),
    (
        RecurrenceReport, (None, 9, ""), {"found": None, "verified_upto": 9},
        {"found": None, "verified_upto": 9, "note": "short prefix"},
        "RecurrenceReport(found=None, verified_upto=9, note='')",
    ),
]


@pytest.mark.parametrize("cls, args, kwargs, changed, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_classes_behave_as_frozen_dataclasses(cls, args, kwargs, changed, text):
    value, same, other = cls(*args), cls(**kwargs), cls(**changed)
    assert tuple(getattr(value, name) for name in cls.__match_args__) == args
    assert value == same and not value != same
    assert hash(value) == hash(same) == hash(args)
    assert value != other and other != value
    assert repr(value) == text
    # Equal only within one class: EvalMode() is not the decimal carrier's
    # mode, and no value equals the tuple of its fields.
    assert value != args
    for other_cls, other_args, *_ in VALUES:
        if other_cls is not cls:
            assert value != other_cls(*other_args)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same
    assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value


# Modules a fresh `count` never needs: dataclasses alone pulls in inspect,
# ast, dis and tokenize; only JSON output and --config read json; decimal
# serves only a wide count or a window; fractions, which imports decimal,
# only an exact rational; fasteval serves only a power, and identities and
# discovery only `verify` and `discover`.
LAZY = ("seqforge.fasteval", "seqforge.identities", "seqforge.discovery")
COLD_START_UNUSED = ("dataclasses", "inspect", "json", "typing", "decimal", "fractions", *LAZY)
COUNT_LOADS = ["seqforge", "seqforge.cli", "seqforge.formats", "seqforge.recurrences", "seqforge.subsets"]


def fresh(script):
    """(exit code, stdout, stderr) of script in a fresh interpreter that
    imports seqforge from this checkout. -I -S: no environment, and no
    site, whose .pth files may import typing before seqforge runs."""
    src = Path(seqforge.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", f"import sys\nsys.path.insert(0, {str(src)!r})\n{script}"],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def loaded_after(argv):
    # (exit code, stdout, the modules of seqforge and of COLD_START_UNUSED
    # imported by then, sorted) of a fresh main(argv).
    code, out, err = fresh(
        "from seqforge.cli import main\n"
        f"code = main({argv!r})\n"
        "sys.stderr.write(' '.join(sorted(\n"
        f"    m for m in sys.modules if m.partition('.')[0] == 'seqforge' or m in {COLD_START_UNUSED!r}\n"
        ")))\n"
        "sys.exit(code)\n"
    )
    return code, out, err.split()


def test_fresh_count_imports_only_what_it_runs():
    argv = ["count", "--n", "5", "--alpha", "2", "--beta", "1"]
    assert loaded_after(argv) == (0, "6\n", COUNT_LOADS)


@pytest.mark.parametrize("argv, loads", [
    (["verify", "--id", "fib-h"], ["seqforge.identities"]),
    (["discover", "--alpha", "1", "--beta", "1"], ["seqforge.fasteval", "seqforge.discovery"]),
    (["enumerate", "--n", "3"], []),
    (["seq", "--family", "fib", "--to", "5"], []),
])
def test_each_command_imports_only_what_it_runs(argv, loads):
    code, out, modules = loaded_after(argv)
    assert (code, [m for m in LAZY if m in modules]) == (0, loads)
    assert out


@pytest.mark.parametrize("identity", ["fib-h", "bijection"])
def test_verify_reads_no_rational_unless_it_checks_one(identity):
    # --threshold is read only when given: its default is not parsed.
    code, out, modules = loaded_after(["verify", "--id", identity])
    assert (code, [m for m in ("fractions", "decimal") if m in modules]) == (0, [])
    assert identity in out


def test_the_surface_holds_in_a_fresh_interpreter():
    script = f"""
import seqforge
lazy = {LAZY!r}
assert not [m for m in lazy if m in sys.modules], "import seqforge loaded " + repr(sys.modules)
assert set(seqforge.__all__) <= set(dir(seqforge)) and len(seqforge.__all__) == 16
assert "eval_fast" not in vars(seqforge)
for name in seqforge.__all__:
    value = getattr(seqforge, name)
    assert getattr(sys.modules[value.__module__], name) is value, name
    assert vars(seqforge)[name] is value, name
star = {{}}
exec("from seqforge import *", star)
assert star.keys() - {{"__builtins__"}} == set(seqforge.__all__)
assert all(star[name] is getattr(seqforge, name) for name in seqforge.__all__)
for name in ("subsets", "recurrences", "fasteval", "discovery", "identities", "formats", "cli"):
    assert getattr(seqforge, name) is sys.modules["seqforge." + name], name
for name in ("nope", "_LAZY_NOPE", "seqforge"):
    try:
        getattr(seqforge, name)
    except AttributeError as exc:
        assert repr(name) in str(exc), exc
    else:
        raise AssertionError(name)
"""
    assert fresh(script) == (0, "", "")
