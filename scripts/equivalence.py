"""Print the SHA-256 fingerprints that a behaviour-preserving change must keep.

    python3 scripts/equivalence.py

Run it from the root of a checkout; it imports that checkout's ``src``,
``bench`` and ``tests`` and changes nothing.  Each line is ``<name> <hex>``:

* ``verify``: the concatenated ``json.dumps(report, sort_keys=True)`` of
  the 14 ``bench/workloads.py`` ``VERIFY_CONFIGS`` reports, in that order;
* ``moderate``: the same over the 13 ``MODERATE`` configs of
  ``tests/test_verify.py``, in sorted suite order;
* ``eval``: the concatenated ``repr((rc, stdout, stderr))`` of the 3,780
  ``workloads.eval_ops(7)`` requests sent through ``cli.main``;
* ``demos``: the concatenated stdout of ``demos/*.py`` in sorted order;
* ``series-gw``: the coefficient terms of ``lambda_series`` and
  ``eval_pi_series`` (n = 1..3) at precisions 0, 1, 6, 10 and 16, over
  every base with depths 0 to 4, on the formal zero and on seeded forms
  with small, negative and large multiplicities;
* ``series-dump``: the concatenated stdout of ``gwinv series --n N --prec P
  --format json`` sent through ``cli.main``, over the 72 (N, P) of
  ``workloads.series_ops(1)`` and then (6, 128).

Compare two checkouts by running it in each.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "bench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import workloads  # noqa: E402
from gwinv.divided import eval_pi_series  # noqa: E402
from gwinv.sampling import rand_gw, standard_fields  # noqa: E402
from gwinv.verify import RunConfig, run_suite  # noqa: E402
from gwinv.witt import GwElement, lambda_series  # noqa: E402


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()


def _reports(configs):
    for name, cfg in configs:
        yield json.dumps(run_suite(name, cfg), sort_keys=True)


def verify_hash() -> str:
    return _digest(_reports((name, RunConfig(**kw)) for name, kw in workloads.VERIFY_CONFIGS))


def moderate_hash() -> str:
    from test_verify import MODERATE

    return _digest(_reports(sorted(MODERATE.items())))


def eval_hash() -> str:
    def answers():
        for req in workloads.eval_ops(7):
            _, rc, out, err = workloads.call_cli(req.argv)
            yield repr((rc, out, err))

    return _digest(answers())


def demos_hash() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def outputs():
        for demo in sorted((ROOT / "demos").glob("*.py")):
            run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, check=True)
            yield run.stdout

    return _digest(outputs())


def series_gw_hash() -> str:
    rng = Random(10)

    def coefficients():
        for F in standard_fields(max_depth=4):
            small = rand_gw(rng, F, rng.randint(1, 5))
            large = rand_gw(rng, F, 3).scale(99999999999)
            for x in (GwElement.zero(F), small, small.scale(-3), large):
                for prec in (0, 1, 6, 10, 16):
                    series = [lambda_series(x, prec)] + [eval_pi_series(n, prec, x) for n in (1, 2, 3)]
                    terms = [[sorted(c.terms.items()) for c in s.coeffs] for s in series]
                    yield repr((str(F), sorted(x.terms.items()), prec, terms))

    return _digest(coefficients())


def series_dump_hash() -> str:
    def dumps():
        for n, prec in [*workloads.series_ops(1), (6, 128)]:
            yield workloads.call_cli(workloads.series_argv(n, prec))[2]

    return _digest(dumps())


HASHES = {
    "verify": verify_hash,
    "moderate": moderate_hash,
    "eval": eval_hash,
    "demos": demos_hash,
    "series-gw": series_gw_hash,
    "series-dump": series_dump_hash,
}


def main() -> None:
    for name, digest in HASHES.items():
        print(name, digest(), flush=True)


if __name__ == "__main__":
    main()
