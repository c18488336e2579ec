"""Write the golden outputs of `verify-theorem` and `census enumerate`.

Each case runs `raca.cli.main` in-process with COLUMNS=80 and records its
exit code (in cases.json), stdout (<name>.stdout) and stderr
(<name>.stderr).  The cases cover plain and --json output under both
readings of condition 3, for the theorem and for the five pairs of the
candidate region.  tests/test_golden.py replays them.  From the
repository root:

    PYTHONPATH=src python tests/golden/generate.py
"""

import contextlib
import io
import json
import os
import pathlib

from raca.cli import main

HERE = pathlib.Path(__file__).resolve().parent
READINGS = ("disjoint_endpoints", "distinct_edges")
PAIRS = ((2, 4), (2, 6), (2, 8), (3, 2), (3, 4))


def cases():
    """(name, argv) of every golden command line."""
    for reading in READINGS:
        for form, extra in (("plain", []), ("json", ["--json"])):
            flags = ["--condition3-reading", reading, *extra]
            yield f"verify-theorem_{reading}_{form}", ["verify-theorem", *flags]
            for vi, vf in PAIRS:
                yield (f"census-enumerate_{vi}_{vf}_{reading}_{form}",
                       ["census", "enumerate", "--videal", str(vi),
                        "--vfinite", str(vf), *flags])


def run(argv):
    """(exit code, stdout, stderr) of one in-process `raca` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write():
    os.environ["COLUMNS"] = "80"
    manifest = []
    for name, argv in cases():
        code, out, err = run(argv)
        (HERE / f"{name}.stdout").write_bytes(out.encode())
        (HERE / f"{name}.stderr").write_bytes(err.encode())
        manifest.append({"name": name, "argv": argv, "exit": code})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    write()
