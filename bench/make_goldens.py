"""Write goldens.json: the digest and exit code of every grid point of every
workload, at both sizes, computed by the seqforge in ./src.

    python3 bench/make_goldens.py

Before an output is accepted it is cross-checked against an independent
route wherever one exists:

- oracle counts and enumerations against a small DP over (first element,
  last element, size), and against the package's closed forms and DP
- Schreier-Zeckendorf counts modulo 2^61-1 against the companion-matrix
  evaluator
- odd-gap counts against fibonacci() doubling and a binomial sum per size
- even-gap counts against even_gap_family_size
- sequence windows, parsed back from each format, against fibonacci(),
  eval_fast and the identities the verify checks state
- modular eval_fast against method="matrix" at order <= 40
- Berlekamp-Massey results against the recurrence that generated the
  prefix, and discovered recurrences against schreier_zeckendorf_count

Identity checks must pass. Any disagreement aborts without writing.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from math import comb

import run
import workloads

pkg = run.import_program()
sys.set_int_max_str_digits(0)

M61 = workloads.MOD_M61
MATRIX_MAX_ORDER = 40


def flags(argv: tuple) -> dict:
    """--flag value pairs of an argv (every flag the grid uses takes a value)."""
    return {k[2:].replace("-", "_"): v for k, v in zip(argv[1::2], argv[2::2])}


def opt_int(f: dict, key: str):
    return int(f[key]) if key in f else None


def dp_count(n, alpha, beta, parity, min_size, forced_max):
    """Subsets of {1..n} under the condition, by DP over subsets that share a
    first element: ways[last][size]."""
    total = 1 if min_size == 0 and forced_max is None else 0  # the empty set
    for first in range(1, n + 1):
        ways = [dict() for _ in range(n + 1)]
        ways[first][1] = 1
        for last in range(first, n + 1):
            for size, c in ways[last].items():
                if size >= min_size and forced_max in (None, last) and (alpha is None or first >= alpha * size):
                    total += c
                for nxt in range(last + 1, n + 1):
                    gap = nxt - last
                    if beta is not None and gap < beta:
                        continue
                    if parity is not None and gap % 2 != (1 if parity == "odd" else 0):
                        continue
                    ways[nxt][size + 1] = ways[nxt].get(size + 1, 0) + c
    return total


def odd_sized(n: int, j: int) -> int:
    """j-subsets of {1..n} with all gaps odd: first element a, gaps 2h+1,
    so the h's sum to at most (n - a - j + 1) / 2."""
    if j <= 1:
        return 1 if j == 0 else n
    return sum(comb((n - a - j + 1) // 2 + j - 1, j - 1) for a in range(1, n - j + 2))


def odd_at_least(n: int, k: int) -> int:
    return pkg.fibonacci(n + 3) - 1 - sum(odd_sized(n, j) for j in range(k))


def closed_form(n, alpha, beta, parity, min_size, forced_max):
    """The package's own closed form or DP for this condition, if it has one."""
    if forced_max is None and min_size == 0 and parity is None and alpha and beta:
        return pkg.schreier_zeckendorf_count(alpha, beta, n)
    if alpha is not None or beta is not None:
        return None
    if parity == "odd" and forced_max is None:
        return pkg.min_size_odd_gap_count(n, min_size)
    if parity == "odd" and forced_max == n and min_size <= 1:
        return pkg.fibonacci(n + 1)
    if parity == "even" and forced_max is None and min_size == 0:
        return pkg.even_gap_family_size(n)
    if parity == "even" and forced_max == n and min_size <= 1:
        return pkg.even_gap_family_size(n) - pkg.even_gap_family_size(n - 1)
    return None


def condition_args(f: dict):
    n = int(f["n"])
    return n, opt_int(f, "alpha"), opt_int(f, "beta"), f.get("gap_parity"), int(f.get("min_size", 0)), opt_int(f, "forced_max")


def check_count(argv, text):
    f = flags(argv)
    n, alpha, beta, parity, min_size, forced_max = cond = condition_args(f)
    value = int(text)
    if n <= 30:
        want = dp_count(*cond)
        if value != want:
            return f"DP gives {want}"
        form = closed_form(*cond)
        return None if form in (None, value) else f"closed form gives {form}"
    if alpha is not None:
        rec = pkg.tail_recurrence_of("schreier-zeckendorf", alpha=alpha, beta=beta)
        want = pkg.eval_fast(rec, n, pkg.EvalMode(M61), method="matrix")
        return None if value % M61 == want else f"matrix evaluation mod 2^61-1 gives {want}"
    if parity == "even":
        want = pkg.even_gap_family_size(n)
        if forced_max is not None:
            want -= pkg.even_gap_family_size(n - 1)
    elif forced_max is not None:
        want = pkg.fibonacci(n + 1)
    else:
        want = odd_at_least(n, min_size)
    return None if value == want else "independent route disagrees"


def check_enumerate(argv, text):
    lines = text.splitlines()
    cond = condition_args(flags(argv))
    want = dp_count(*cond)
    if len(lines) != want:
        return f"{len(lines)} subsets listed, DP counts {want}"
    if len(set(lines)) != len(lines):
        return "a subset is listed twice"
    return None


def parse_window(text: str, fmt: str) -> tuple[int, list[int]]:
    if fmt == "bfile":
        window = pkg.formats.parse_bfile(text)
        return window.offset, list(window.terms)
    if fmt == "json":
        payload = json.loads(text)
        return payload["offset"], [int(t) for t in payload["terms"]]
    rows = text.splitlines()[1:]
    pairs = [row.split(",") if fmt == "csv" else row.split() for row in rows]
    return int(pairs[0][0]), [int(v) for _, v in pairs]


@lru_cache(maxsize=None)
def expected_term(family: str, params: tuple, i: int) -> int:
    if family == "fib":
        return pkg.fibonacci(i)
    if family == "H":  # fib-h: F(i+4) = H(i) + i + 3
        return pkg.fibonacci(i + 4) - i - 3
    if family == "schreier-zeckendorf":
        return pkg.schreier_zeckendorf_count(*params, i)
    if family == "minsize-oddgap":
        return odd_at_least(i, *params)
    order = params[0]
    rec = pkg.tail_recurrence_of("genfib", n=order)
    if family == "genfib":
        return pkg.eval_fast(rec, i)
    if family == "genk":  # gen-sum: w(0) + ... + w(i) = w(i + n) - 1
        return pkg.eval_fast(rec, i + order) - 1 if i >= 1 else 0
    return pkg.eval_fast(rec, i + 2 * order) - i - order - 1  # genh, by gen-shift


def check_seq(argv, text):
    f = flags(argv)
    offset, terms = parse_window(text, f["format"])
    first = 1 if f["family"] in ("schreier-zeckendorf", "minsize-oddgap") else 0
    start = max(first, int(f.get("from", first)))
    if offset != start or offset + len(terms) - 1 != int(f["to"]):
        return f"window is [{offset}, {offset + len(terms) - 1}]"
    params = tuple(int(f[k]) for k in ("alpha", "beta", "n", "k") if k in f)
    last = offset + len(terms) - 1
    # Absolute sample indices, so windows that overlap share the cached terms.
    for i in sorted({offset, offset + 1, last, *range(-(-offset // 97) * 97, last, 97)}):
        if terms[i - offset] != expected_term(f["family"], params, i):
            return f"term {i} disagrees"
    return None


def check_verify(argv, text):
    return "identity check failed" if "FAIL" in text else None


def check_discover(argv, text):
    f = flags(argv)
    alpha, beta = int(f["alpha"]), int(f["beta"])
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    coeffs = [int(c) for c in fields["coeffs"].split()]
    last = int(fields["verified_upto"])
    a = lambda i: pkg.schreier_zeckendorf_count(alpha, beta, i)  # noqa: E731
    for i in range(last + 1, last + 20):
        if a(i) != sum(c * a(i - t) for t, c in enumerate(coeffs, start=1)):
            return f"discovered recurrence fails at {i}"
    return None


def check_eval_fast(call, inputs, result):
    rec, n, mode = inputs
    if rec.order > MATRIX_MAX_ORDER:
        return None
    want = pkg.eval_fast(rec, n, mode, method="matrix")
    return None if result == want else f"matrix evaluation gives {want}"


def check_bm(call, inputs, result):
    _, kind, *params = call
    if result.found is None:
        return None
    rec = result.found
    if kind == "random":
        order, i, length = params
        coeffs, prefix = workloads.random_recurrence_prefix(order, i, 6 * order)
        want = coeffs
    else:
        k, length = params
        prefix = list(pkg.min_size_odd_gap_seq(3 * length, k).terms)
        want = None
    ext = list(rec.initials)
    while len(ext) < len(prefix):
        ext.append(sum(c * ext[-t] for t, c in enumerate(rec.coeffs, start=1)))
    if ext != prefix:
        return "recovered recurrence does not extend the sequence"
    if want is not None and tuple(rec.coeffs) != want:
        return f"recovered {rec.coeffs}, generated by {want}"
    return None


CLI_CHECKS = {
    "count": check_count, "enumerate": check_enumerate, "seq": check_seq,
    "verify": check_verify, "discover": check_discover,
}
LIB_CHECKS = {"eval_fast": check_eval_fast, "berlekamp_massey": check_bm}


def main() -> int:
    goldens = {}
    problems = []
    for name in workloads.WORKLOADS:
        table = goldens.setdefault(name, {})
        for size in workloads.SIZES:
            grid = workloads.build(name, size).ops
            executor = workloads.Executor(pkg, grid)
            for op in grid:
                if op.key in table:
                    continue
                outcome = executor.run(op, keep=True)
                if not outcome.digest.endswith(":0"):
                    problems.append(f"{op.key}: {outcome.digest}")
                    continue
                if op.argv is not None:
                    problem = CLI_CHECKS[op.argv[0]](op.argv, outcome.value)
                else:
                    problem = LIB_CHECKS[op.call[0]](op.call, executor.inputs[op.key], outcome.value)
                if problem:
                    problems.append(f"{op.key}: {problem}")
                table[op.key] = outcome.digest
        print(f"{name}: {len(table)} goldens", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = run.BENCH_DIR / "goldens.json"
    path.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
