"""The sphere geometry takes no BLAS reduction.

``param_space`` and ``llpf_core`` sum squares only through
``param_space.radial_norm_sq`` (``np.add.reduce``): a BLAS ``ddot``, reached
through ``@``, ``np.dot``, ``np.vdot``, ``np.inner`` or ``np.linalg.norm``,
can change its last bit with the BLAS thread count.  The check reads the
source with the standard library's ``ast``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "llpf"
MODULES = [SRC / "param_space.py", SRC / "llpf_core.py"]
BANNED_CALLS = {"np.dot", "np.vdot", "np.inner", "np.linalg.norm"}


def blas_reductions(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in BANNED_CALLS:
            found.append((node.lineno, ast.unparse(node.func)))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_finds_each_blas_reduction():
    source = (
        "@dataclass\nclass A:\n    pass\n"
        "a = x @ x\nb @= c\nn = np.linalg.norm(x)\nd = np.dot(x, y)\n"
        "e = np.vdot(x, y)\nf = np.inner(x, y)\ng = np.add.reduce(x * x)\n"
    )
    assert blas_reductions(source) == [
        "line 4: @", "line 5: @", "line 6: np.linalg.norm", "line 7: np.dot",
        "line 8: np.vdot", "line 9: np.inner",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_blas_reductions(path):
    assert blas_reductions(path.read_text()) == []
