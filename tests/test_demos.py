import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# sha256 of each demo's stdout
_DEMO_DIGESTS = {
    "01_fischer_spaces": "607bccef7b48ec2df65e2efc11d8b508167f2609d452347a75e28276ca2c1f1a",
    "02_transposition_groups": "cf7c7af864a0baf594501614f4917de94c2a5cc7183ec54a3da5032988e8e9dc",
    "03_nilpotent_algebras": "76ae1d218d09043d055404ddbbab7ed6923cbe20d2e1238a8cc522e140ebbec2",
    "04_fusion_laws": "e254422c8a9e9835d1d42271dc56a12e5818c95e5a16ef0d2f0f562a7a15bc53",
    "05_miyamoto_and_aut": "70f4608415f8845da5e548e98265d77de6008e6e6ee2ab5482610ecbf8d61aaa",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(_DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(_DEMO_DIGESTS))
def test_demo_output_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == _DEMO_DIGESTS[name]
