"""The package's top-level surface: exactly the names README's "Library use"
section documents and the benchmark reaches through the package, and the
README's example block, run with each commented result checked."""

import ast
import re
from pathlib import Path

import seqforge

SURFACE = [
    "Condition",
    "count_subsets",
    "condition_count",
    "condition_gf",
    "fibonacci",
    "even_gap_family_size",
    "min_size_odd_gap_count",
    "min_size_odd_gap_seq",
    "schreier_zeckendorf_seq",
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
