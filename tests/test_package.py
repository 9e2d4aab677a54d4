"""The package's top-level surface: exactly the names README's "Library use"
section documents and the benchmark reaches through the package, and the
README's example block, run with each commented result checked. Also the
value classes' frozen-dataclass behaviour, and what a fresh `count` imports."""

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
# ast, dis and tokenize, and only JSON output and --config read json.
COLD_START_UNUSED = ("dataclasses", "inspect", "json", "typing")


def test_fresh_count_imports_only_what_it_runs():
    # -I -S: no environment, and no site, whose .pth files may import typing
    # before seqforge runs.
    src = Path(seqforge.__file__).resolve().parents[1]
    script = (
        f"import sys\nsys.path.insert(0, {str(src)!r})\n"
        "from seqforge.cli import main\n"
        "code = main(['count', '--n', '5', '--alpha', '2', '--beta', '1'])\n"
        f"sys.stderr.write(' '.join(m for m in {COLD_START_UNUSED!r} if m in sys.modules))\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "6\n", "")
