"""Golden outputs of the README's CLI examples.

Each example runs in-process through click's CliRunner.  Its stdout must
equal the committed text in tests/golden_cli/<name>.txt, with the raster
command's `wrote <path>` line reduced to the file name, and the two PGM
files must match the committed SHA-256 digests byte for byte.
"""

import hashlib
import json
import os
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from setavg.cli import main

GOLDEN = Path(__file__).parent / "golden_cli"

SETS = [[["0", "1"]], [["0", "2"]]]
POINTS = [[0, 0], [1, 0], [0, 1], [1, 1]]
SHAPES = [
    {"type": "triangle", "points": [[1, 1], [9, 2], [4, 8]]},
    {"type": "rectangle", "corners": [[3, 5], [11, 9]]},
    {"type": "ellipse", "center": [8, 4], "semi_axes": [4, 2]},
]

RASTER = ["raster", "--shapes", "{shapes}", "--weights", "1/3,1/3,1/3", "--h", "13/200"]

EXAMPLES = {
    "average": ["average", "--sets", "{sets}", "--weights", "1/2,1/2"],
    "average-exact": ["--exact", "average", "--sets", "{sets}", "--weights", "1/2,1/2"],
    "bernstein": ["bernstein", "--svf", "grow", "--n", "8", "--x", "1/3"],
    "decasteljau": ["decasteljau", "--svf", "split", "--n", "4", "--x", "1/2"],
    "decasteljau-naive": ["decasteljau", "--svf", "split", "--n", "4", "--x", "1/2", "--naive"],
    "operator-pl": ["operator", "--svf", "slide", "--scheme", "pl", "--n", "6", "--x", "2/5"],
    "converge": ["converge", "--svf", "holder", "--n-list", "1,2,4,8,16,32"],
    "monotone": ["monotone", "--svf", "grow", "--scheme", "bernstein", "--n", "8"],
    "multivar": ["multivar", "--points", "{points}", "--levels", "3", "--query", "3/10,7/10"],
    "raster-partition": RASTER + ["--out", "{tmp}/partition.pgm"],
    "raster-average": RASTER + ["--out", "{tmp}/average.pgm"],
}

PGM_SHA256 = {
    "raster-partition": ("partition.pgm", "9f090f1a278ea397c81c4987c071c6d2b52969f2473c9168ca3b4ee145764c15"),
    "raster-average": ("average.pgm", "e941664a81e6438ed8c0e054b406a3adc697634eafc0a41e8cc6a397df5d1573"),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example(name, tmp_path):
    files = {"sets": SETS, "points": POINTS, "shapes": SHAPES}
    paths = {"tmp": str(tmp_path)}
    for key, content in files.items():
        paths[key] = str(tmp_path / f"{key}.json")
        Path(paths[key]).write_text(json.dumps(content))
    args = [arg.format(**paths) for arg in EXAMPLES[name]]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    stdout = re.sub(r"^wrote (.*)$", lambda m: f"wrote {os.path.basename(m[1])}",
                    res.stdout, flags=re.M)
    assert stdout == (GOLDEN / f"{name}.txt").read_text()
    if name in PGM_SHA256:
        filename, digest = PGM_SHA256[name]
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest
