"""Regenerate the committed golden CLI outputs (run from anywhere).

    python tests/regenerate_goldens.py [NAME ...]

Run this only after an intentional change to what the CLI prints, and name
the golden files whose output that change moves: rewriting the others would
fold this machine's float drift into them.  With no names, every golden is
rewritten.  The golden tests compare float digits at the method's rounding
bound, not byte for byte, so a platform's float drift is no reason to
regenerate.
"""

import subprocess
import sys

from golden_manifest import GOLDEN, GOLDEN_RUNS


def main(names: list[str]) -> None:
    unknown = set(names) - {name for name, _, _ in GOLDEN_RUNS}
    if unknown:
        raise SystemExit(f"no pinned run named {', '.join(sorted(unknown))}")
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, expected_exit in GOLDEN_RUNS:
        if names and name not in names:
            continue
        proc = subprocess.run([sys.executable, "-m", "choqint", *argv],
                              capture_output=True, text=True)
        if proc.returncode != expected_exit:
            raise SystemExit(
                f"{name}: exit {proc.returncode}, expected {expected_exit}\n{proc.stderr}"
            )
        (GOLDEN / name).write_text(proc.stdout, encoding="utf-8")
        print(f"wrote {name} ({len(proc.stdout)} bytes)")


if __name__ == "__main__":
    main(sys.argv[1:])
