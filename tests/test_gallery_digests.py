"""The gallery at scale: sha256 of `twodiag spectrum` and of `twodiag gen
--format json` for every selector at matrix dimension 1000 or 1001, so the
exact squares and spectra are pinned far beyond the N = 3 goldens and the
N <= 12 certificates.  Regenerate with
`PYTHONPATH=src python tests/test_gallery_digests.py` and review the diff."""

import contextlib
import hashlib
import io
from pathlib import Path

from twodiag.cli import main
from twodiag.eigsolve import FAMILY_CHOICES, _dim_to_n

GALLERY_DIGESTS = Path(__file__).parent / "golden" / "gallery_digests.txt"


def _size_parameter(selector: str) -> int:
    """-N of the selector's matrix of dimension 1000, or 1001 where the
    dimension must be odd."""
    try:
        return _dim_to_n(selector, 1000)
    except ValueError:
        return _dim_to_n(selector, 1001)


def gallery_digests() -> str:
    lines = []
    for selector in FAMILY_CHOICES:
        n = str(_size_parameter(selector))
        for argv in (["spectrum", selector, "-N", n],
                     ["gen", selector, "-N", n, "--format", "json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0, argv
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            lines.append(f"{digest}  twodiag {' '.join(argv)}\n")
    return "".join(lines)


def test_gallery_digests_at_dimension_1000():
    assert gallery_digests() == GALLERY_DIGESTS.read_text()


if __name__ == "__main__":
    GALLERY_DIGESTS.write_text(gallery_digests())
