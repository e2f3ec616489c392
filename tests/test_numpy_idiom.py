"""No numpy module wrapper where an ndarray method or a plain index does the same.

A pipeline cell works on 4 x 4 matrices and a map on tables of a few
entries, where numpy's per-call overhead, not its arithmetic, sets the
cost.  The module functions below add 1.4 to 2.4 us a call over the
ndarray method or the plain index that does the same work (numpy 2.4.6 on
a 2-vCPU host): `np.max(np.abs(d))` took 4.2 us against 2.8 us for
`np.abs(d).max()`, `np.any(x)` 2.8 against 1.3 us for `x.any()`, and
`x[np.ix_(i, i)]` 5.1 against 2.7 us for `x[[[0], [1]], [0, 1]]`.  The
method runs the same reduction in the same order, so every value stays
the same bit for bit.  The scan fails on any call to these wrappers under
`src/cavitymix`.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cavitymix"
WRAPPERS = {"np.max", "np.min", "np.sum", "np.any", "np.all", "np.sort", "np.ix_", "np.append"}


def _wrapper_calls(source: str) -> list[str]:
    """`line: call` of each call to one of WRAPPERS in `source`."""
    return [
        f"{node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and ast.unparse(node.func) in WRAPPERS
    ]


def test_the_scan_finds_each_wrapper():
    source = "\n".join(f"{name}(x)" for name in sorted(WRAPPERS))
    assert len(_wrapper_calls(source)) == len(WRAPPERS)
    assert _wrapper_calls("np.abs(d).max()\nx[[[0], [1]], [0, 1]]\nnp.concatenate([a, b])") == []


def test_no_numpy_wrapper_in_the_package():
    found = {path.name: _wrapper_calls(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}
    assert len(found) >= 9  # the scan sees every module
