"""Regenerate the committed golden CLI outputs (run from anywhere).

    python tests/regenerate_goldens.py [NAME ...]

Run this only after an intentional change to what the CLI prints, and name
the golden files whose output that change moves; with no names, every golden
is regenerated.  Each number that the golden comparator still accepts keeps
its old digits, so a regenerated file changes only where the output moved
beyond its bound or changed its structure, and this machine's float drift
stays out of it.  The golden tests compare float digits at the method's
rounding bound, not byte for byte, so a platform's float drift is no reason
to regenerate.
"""

import subprocess
import sys

from golden_compare import keep_accepted_numbers
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
        path = GOLDEN / name
        text = proc.stdout
        if path.exists():
            text = keep_accepted_numbers(argv, path.read_text(encoding="utf-8"), text)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {name} ({len(text)} bytes)")


if __name__ == "__main__":
    main(sys.argv[1:])
