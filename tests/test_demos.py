import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Each demo's whole standard output: every figure in it is deterministic.
STDOUT = {
    "01_chip_firing_basics": (
        "graph: 7 vertices, 9 edges\n"
        "start divisor: a:3\n"
        "after firing {a}: a:1 b:1 c:1\n"
        "maximal fireable set avoiding d: {abcefg}\n"
        "d-reduced form of a:3: d:2 g:1\n"
        "firing script: a:4 b:2 c:3 e:2 f:2 g:2\n"
    ),
    "02_divisor_to_decomposition": (
        "divisor a:3 has positive rank: True\n"
        "\n"
        "strategy tree: 14 positions, 4 searchers\n"
        "  step III at (a | bcdefg): fire {a} from a:3\n"
        "  step I at (bc | defg)\n"
        "  step II at (bc | d)\n"
        "  step III at (bc | efg): fire {ac} from a:1 b:1 c:1\n"
        "  step III at (b | d): fire {abcefg} from a:1 b:1 c:1\n"
        "  step III at (bg | ef): fire {abcdg} from b:2 g:1\n"
        "\n"
        "decomposition: 14 bags, width 3, valid: True\n"
        "\n"
        "PACE .td output:\n"
        "s td 14 4 7\n"
        "b 1\n"
        "b 2 1\n"
        "b 3 1 2 3\n"
        "b 4 2 3\n"
        "b 5 2 3\n"
        "b 6 2\n"
        "b 7 2 4\n"
        "b 8 4\n"
        "b 9 2 3\n"
        "b 10 2 3 7\n"
        "b 11 2 7\n"
        "b 12 2 5 6 7\n"
        "b 13 5 6 7\n"
        "b 14 5 6\n"
        "1 2\n"
        "2 3\n"
        "3 4\n"
        "4 5\n"
        "4 9\n"
        "5 6\n"
        "6 7\n"
        "7 8\n"
        "9 10\n"
        "10 11\n"
        "11 12\n"
        "12 13\n"
        "13 14\n"
    ),
    "03_gonality_search": (
        "path P5: gonality 1, witness 4:1\n"
        "cycle C5: gonality 2, witness 4:2\n"
        "double edge: gonality 2, witness 1:2\n"
        "quadruple edge: gonality 2, witness 0:1 1:1\n"
        "7-vertex example: gonality 3, witness e:1 g:2\n"
    ),
    "04_harmonic_morphisms": (
        "4-cycle folded onto a path: harmonic: True, degree 2, m = (2, 1, 2, 1)\n"
        "bags: ['a', 'ab', 'abd', 'bcd', 'bd', 'c', 'cd']\n"
        "width: 2\n"
        "\n"
        "contracted to the double edge: width 1, valid: True\n"
    ),
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == STDOUT[demo.stem]
