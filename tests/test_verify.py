"""Every identity suite runs clean at moderate parameters, and the report
format honors its contract."""

import importlib.util
import json
import re
from dataclasses import replace
from itertools import count
from operator import mul
from pathlib import Path
from random import Random

import pytest

from gwinv import fields, invariants, sampling, series, verify, witt
from gwinv.divided import H_TARGET, W_TARGET
from gwinv.verify import RunConfig, SUITES, _cases, _report, _text, run_suite
from gwinv.witt import GwElement
from pinned_inputs import MODERATE

# cases_total of each MODERATE run when the suites became case generators;
# a refactor may add cases but must not lose any
MODERATE_FLOORS = {
    "classify": 909,
    "coh-ops": 486,
    "delta1": 326,
    "f-axioms": 300,
    "fixed-dim": 158,
    "g-bounds": 272,
    "lambda": 5091,
    "pi": 2988,
    "product": 2015,
    "ram": 280,
    "restrict": 91,
    "series": 1719,
    "simil": 240,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name, MODERATE[name])
    assert report["cases_failed"] == 0, report["first_failure"]
    assert report["cases_total"] >= MODERATE_FLOORS[name]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_family_yields_cases(name):
    # a wrong `applies` filter or count would skip a family without failing
    keys = [fam.key for fam in SUITES[name]]
    assert len(set(keys)) == len(keys)
    assert {context[0] for context, _, _ in _cases(name, MODERATE[name])} == set(keys)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_config_minimums_are_enforced(name):
    # every suite runs clean at the minima and never sees a value below one
    lows = RunConfig.MINIMUMS
    report = run_suite(name, RunConfig(**lows))
    assert report["cases_failed"] == 0, report["first_failure"]
    for field, low in lows.items():
        with pytest.raises(ValueError, match=f"^{field} must be >= {low}, got {low - 1}$"):
            run_suite(name, RunConfig(**{field: low - 1}))


@pytest.mark.parametrize("mode", ["w", "h", "WH", "", 0])
def test_unknown_mode_is_rejected(mode):
    # any other mode would select both targets while the report names it
    with pytest.raises(ValueError, match="^mode must be None, 'W' or 'H', got "):
        RunConfig(mode=mode)


def test_known_modes_select_their_targets():
    assert [t.mode for t in RunConfig(mode="W").targets()] == ["W"]
    assert [t.mode for t in RunConfig(mode="H").targets()] == ["H"]
    assert [t.mode for t in RunConfig().targets()] == ["W", "H"]


@pytest.mark.parametrize("field", [None, "F1099511627689((t1))"])
def test_a_run_builds_its_fields_once(monkeypatch, field):
    """The count functions size a run without building a field: a run
    parses --field once, or builds standard_fields() once."""
    check, calls = fields._is_odd_prime_power, []

    def counted(q):
        calls.append(q)
        return check(q)

    monkeypatch.setattr(fields, "_is_odd_prime_power", counted)
    cfg = RunConfig(field=field, samples=3)
    assert verify._field_count(cfg) == len(verify._fields(cfg))
    calls.clear()
    assert run_suite("lambda", cfg)["cases_failed"] == 0
    per_run = sorted(calls)
    calls.clear()
    verify._fields(cfg)
    sampling.standard_fields()  # pfister-squares walks every standard field itself
    assert per_run == sorted(calls)


def test_residue_family_covers_every_base():
    # one tower of depth >= 1 per base, so the residue identities reach F_q
    cases = [ctx for ctx, _, _ in _cases("coh-ops", MODERATE["coh-ops"]) if ctx[0] == "residue"]
    assert len(cases) == 24
    towers = {detail.rsplit(" over ", 1)[1] for _, detail, *_ in cases}
    assert towers == {"C((t1))", "R((t1))", "F3((t1))", "F5((t1))"}


def test_failure_text_names_family_field_mode_and_case(monkeypatch):
    monkeypatch.setattr(verify, "eval_g", lambda n, d, q, target: target.one(q.field))
    failure = run_suite("g-bounds", RunConfig(samples=4))["first_failure"]
    assert failure["inputs"].startswith("g-bounds/beyond-bound: g_")
    assert failure["inputs"].endswith(" over C (W, case 0)")
    assert (failure["expected"], failure["got"]) == ("0", "<1>")


def test_h_read_out_failure_shows_eps_polynomials(monkeypatch):
    # each read-out coefficient is off by 1 + eps, so the failure's two
    # sides differ in eps and both read as F2[eps] text, not packed ints
    real = invariants.extract_coeffs
    monkeypatch.setattr(invariants, "extract_coeffs", lambda alpha, d: [c ^ 0b11 for c in real(alpha, d)])
    failure = run_suite("classify", RunConfig(mode="H", samples=4))["first_failure"]
    assert failure["inputs"].startswith("classify/read-out: coefficient d=0, ")
    texts = {invariants.coeff_ops("H").show(c) for c in range(16)}
    assert {failure["expected"], failure["got"]} <= texts
    assert "eps" in failure["expected"] + failure["got"]


# small enough that every suite runs in well under a second
SMALL = RunConfig(samples=4, n_max=2, d_max=3, prec=8)

# the driver's own text at the end of a label: "(W, case 3)", "(H)", "(case 3)"
DRIVER_TEXT = re.compile(r"\((?:[WH]\b[^()]*|case \d+)\)$")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_no_family_writes_the_driver_coordinates(name):
    """Only ``_label`` writes a case's mode and index, so no detail ends in them."""
    for cfg in (SMALL, MODERATE[name]):
        details = [context[1] for context, _, _ in _cases(name, cfg)]
        assert details and not [detail for detail in details if DRIVER_TEXT.search(detail)]


# the families checked for their coordinates, as (suite, key, applies,
# per_target); applies None marks a field-free family
DRIVEN = [
    ("classify", "discriminant", lambda F: F.kind in ("C", "F"), False),
    ("classify", "disc-truncation", None, False),
    ("g-bounds", "attained", None, True),
    ("delta1", "descent-well-defined", lambda F: True, True),
]


@pytest.mark.parametrize("name, key, applies, per_target", DRIVEN, ids=[f"{n}/{k}" for n, k, *_ in DRIVEN])
def test_driven_families_carry_the_driver_coordinates(name, key, applies, per_target):
    """Each case of these families has its field (None when field-free), its
    target when per-target, and its index among the family's cases."""
    cfg = MODERATE[name]
    fam = next(fam for fam in SUITES[name] if fam.key == key)
    fields = [F for F in verify._fields(cfg) if applies(F)] if applies else [None]
    targets = cfg.targets() if per_target else [None]
    seen = {(target, i): F for (k, _, F, target, i), _, _ in _cases(name, cfg) if k == key}
    assert seen
    for (target, i), F in seen.items():
        assert target in targets
        assert 0 <= i < fam.count(cfg)
        assert F == fields[i % len(fields)]
    if key != "disc-truncation":  # the only family that may skip a draw
        assert set(seen) == {(target, i) for target in targets for i in range(fam.count(cfg))}


def test_descent_well_defined_catches_a_wrong_alternative(monkeypatch):
    # each alternative loses its cofactor, so its descent value drops to 0
    # while x keeps its own
    def wrong(x, budget, rng):
        return [x, replace(x, cofactor=witt.witt_zero(x.field))]

    monkeypatch.setattr(verify, "alt_factorizations", wrong)
    report = run_suite("delta1", MODERATE["delta1"])
    assert report["cases_failed"] > 0
    assert report["first_failure"]["inputs"].startswith("delta1/descent-well-defined: level=")


def _by_family(name: str, cfg: RunConfig) -> dict:
    """The ``(inputs, expected, got)`` texts of each family of a run."""
    out = {}
    for context, expected, got in _cases(name, cfg):
        out.setdefault(context[0], []).append((verify._label(name, *context), _text(expected), _text(got)))
    return out


@pytest.mark.parametrize("name", sorted(SUITES))
def test_a_family_draws_the_same_cases_whatever_the_others_are(monkeypatch, name):
    """Each family samples from a stream of its own: reversing a suite, or
    dropping any one family of it, leaves every other family's cases as
    they were."""
    want, families = _by_family(name, SMALL), SUITES[name]
    monkeypatch.setitem(SUITES, name, families[::-1])
    assert _by_family(name, SMALL) == want
    for fam in families:
        monkeypatch.setitem(SUITES, name, [other for other in families if other is not fam])
        assert _by_family(name, SMALL) == {key: cases for key, cases in want.items() if key != fam.key}


def test_each_family_stream_is_seeded_by_suite_and_key(monkeypatch):
    """A family's stream starts at ``Random(f"{seed}/{suite}/{key}")``, so
    ``product/pointwise`` and ``restrict/pointwise`` draw different samples."""
    starts = {}

    def spy(suite, key):
        def run(cfg, rng, *rest):
            starts.setdefault((suite, key), rng.getstate())
            return iter(())

        return run

    for name, families in SUITES.items():
        monkeypatch.setitem(SUITES, name, [replace(fam, run=spy(name, fam.key)) for fam in families])
        list(_cases(name, SMALL))
    assert starts == {
        (name, fam.key): Random(f"{SMALL.seed}/{name}/{fam.key}").getstate()
        for name, families in SUITES.items()
        for fam in families
    }
    assert starts["product", "pointwise"] != starts["restrict", "pointwise"]


def _tamper_lambda_series(monkeypatch, reads, degree, which=None):
    """Make verify's lambda_series add <1> at ``degree`` to each read of
    ``reads`` degrees, or, given ``which``, only to the reads numbered
    ``which`` mod 3 among them (from 1)."""
    real, numbers = verify.lambda_series, count(1)

    def tampered(x, degrees):
        out = real(x, degrees)
        if len(degrees) == reads and (which is None or next(numbers) % 3 == which):
            out[degree] = out[degree] + GwElement.unit(x.field)
        return out

    monkeypatch.setattr(verify, "lambda_series", tampered)


# every 9-degree read, then only the read of x, so that the right-hand side
# alone moves
@pytest.mark.parametrize("which", [None, 1], ids=["every-read", "x-read"])
def test_lambda_sum_rule_catches_a_wrong_series(monkeypatch, which):
    _tamper_lambda_series(monkeypatch, 9, 2, which)
    report = run_suite("lambda", RunConfig(samples=6))
    assert report["cases_failed"] > 0
    assert report["first_failure"]["inputs"].startswith("lambda/exterior-powers: lambda sum rule d=2 over ")


def test_lambda_unit_catches_a_wrong_degree_zero_read(monkeypatch):
    _tamper_lambda_series(monkeypatch, 9, 0)
    report = run_suite("lambda", RunConfig(samples=6))
    assert report["cases_failed"] > 0
    assert report["first_failure"]["inputs"].startswith("lambda/exterior-powers: lambda^0 = 1 over ")


def test_lambda_fixed_points_catch_a_wrong_batched_read(monkeypatch):
    _tamper_lambda_series(monkeypatch, 5, 3)
    report = run_suite("lambda", RunConfig(samples=6))
    assert report["cases_failed"] > 0
    assert report["first_failure"]["inputs"].startswith("lambda/exterior-powers: lambda^3 fixes <<")


def test_lambda_series_vs_direct_catches_a_wrong_batched_read(monkeypatch):
    _tamper_lambda_series(monkeypatch, 4, 2)
    report = run_suite("lambda", RunConfig(samples=6))
    assert report["cases_failed"] > 0
    assert report["first_failure"]["inputs"].startswith("lambda/exterior-powers: series vs direct d=2 over ")


def test_lambda_exterior_powers_reads_the_kernel_five_times_a_case(monkeypatch):
    # the three sum-rule series (lambda^0 and lambda^1 of x read off the
    # first), lambda^0..3 of the diagonal form and the fixed points: one
    # character-kernel call each
    kernel, calls, per_case = witt.character_series, [], []

    def spy(x, degrees, row):
        calls.append(degrees)
        return kernel(x, degrees, row)

    fam = next(f for f in SUITES["lambda"] if f.key == "exterior-powers")

    def counted(*args):
        before = len(calls)
        yield from fam.run(*args)
        per_case.append(len(calls) - before)

    families = [replace(f, run=counted) if f is fam else f for f in SUITES["lambda"]]
    monkeypatch.setattr(witt, "character_series", spy)
    monkeypatch.setitem(SUITES, "lambda", families)
    cfg = RunConfig(samples=6)
    assert run_suite("lambda", cfg)["cases_failed"] == 0
    assert per_case == [5] * fam.count(cfg)


def test_series_suite_catches_a_dropped_degree_zero_product_term(monkeypatch):
    def dropped(a, b):  # each degree d loses a_d b_0
        return [sum(map(mul, a[: d + 1], b[d:0:-1])) for d in range(min(len(a), len(b)))]

    monkeypatch.setattr(series, "cauchy", dropped)
    monkeypatch.setattr(verify, "cauchy", dropped)
    report = run_suite("series", RunConfig())
    assert report["cases_failed"] > 0
    assert report["first_failure"]["inputs"].startswith("series/unit-products: ")


DIGESTS = {
    "verify": "bafc3fc86ad11d13bc84f62cc616b2f0df1e621367459a44a0df3a2cd9af31ff",
    "series-gw": "a88f8c332f79665c602a6b44ea5dbacfabfe0018a4ce7d2a1a7b525998cd505d",
    "kernel-wide": "c65d4fae83a259014ab6386afa18358b26fd6d1c1e28a35c936254b6d3cd7650",
    "sw-values": "fdb3e81fa6e146d712e08cb828feef44b0c6bb64039d490608ddd6d0480a0d34",
    "series-cap": "c58311f711a9981c94e7db9f93797bbdcaed478d504e299df1c191be2404c568",
    "f-values": "67fe31822d69aa4f25cc55eb3a1456ff263c8bbce554358e962deb6e41e56837",
    "g-values": "b1e53bb4915c1d2959eb22bf133858538e6922cbda37d57391e90fab607dfc5c",
    "moderate": "0a6fbb05bf52ccbcdd40dbd4f14d7421e5bf5ba679f256a8da456e606d4d430e",
    "cli-errors": "048a0062fa3724bcf6cbcbd5929ed19bdad02f903c754a03d603a8a8d05cf125",
    "witt-level": "c8d6ac09bc5d75d8de2a148c82d56dd60db8a313ed344d1d920b581b907aa866",
    "series-dump": "1d28054531bc04d7ae8004373192127e212a93e502ab46d2dad4e3371c92d763",
    "eval": "ca5ec8bfefadb9f75ea369f6ae3c59f5c2ddc2e85d217f0a3dcec0066d186f9c",
    "demos": "17a79d414f632a27cb8c5efa45dc119cb82743dc81836a3e2175384d7abdfcac",
    "pi-deep": "b594058185ab7f927b7c4c3dcd13e3abfa71c95c7ea6ceac9b2e5f5c917c4c5d",
}


@pytest.mark.parametrize("name, digest", DIGESTS.items(), ids=list(DIGESTS))
def test_equivalence_digest_is_pinned(name, digest):
    """Digests of ``scripts/equivalence.py``: ``verify`` is every
    ``cases_total``, with no failure, of the 14 benchmark ``VERIFY_CONFIGS``
    runs; ``series-gw``, ``kernel-wide`` and ``sw-values`` are the kernel
    series read as degree-keyed dicts; ``series-cap`` is the six
    ``gwinv series`` dumps on the size cap line; ``f-values`` and
    ``g-values`` are ``evaluate`` and ``eval_g`` on every f and g generator
    of low degree and on seeded sums and products of them; ``moderate`` is
    the ``MODERATE`` reports; ``cli-errors`` the usage and parse
    errors of ``cli.main``; ``witt-level`` ``filtration_level`` on whole
    Witt groups and seeded classes; ``series-dump`` the ``gwinv series``
    JSON dumps of the series workload; ``eval`` the benchmark's ``gwinv
    eval`` requests; ``demos`` the stdout of ``demos/*.py``; ``pi-deep``
    the divided powers on sparse degree sets over deep towers.  A change
    that moves a digest on purpose (adds or drops cases, changes a value)
    records the new value here, with a line in ``CHANGES.md`` saying
    why."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "equivalence.py"
    spec = importlib.util.spec_from_file_location("equivalence", path)
    equivalence = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(equivalence)
    assert equivalence.HASHES[name]() == digest


# a slice of the suites that reaches every unchecked constructor, in both modes
GUARDED = {
    "lambda": RunConfig(samples=12, prec=8),
    "f-axioms": RunConfig(samples=12, n_max=2, d_max=4),
    "classify": RunConfig(samples=12, n_max=2, d_max=4),
}


def test_unchecked_constructors_build_only_checkable_values(monkeypatch):
    """Library results are built through ``_of``, without the checks of the
    public constructors.  With each ``_of`` replaced by its class's
    checking constructor, which must also keep the value as given (no zero
    to drop), the ``GUARDED`` slice gives the same reports and no error, so
    a kernel that makes an invalid leaf, term or coefficient still fails
    here."""
    want = {name: run_suite(name, cfg) for name, cfg in GUARDED.items()}
    assert not any(report["cases_failed"] for report in want.values())
    slots = {
        witt.WittClass: ("field", "leaves"),
        witt.GwElement: ("field", "terms"),
        invariants.SymbolicInvariant: ("n", "mode", "coeffs"),
    }
    seen = set()

    def checking(cls, *args):
        seen.add(cls)
        value = cls(*args)
        assert [getattr(value, slot) for slot in slots[cls]] == list(args)
        return value

    for cls in slots:
        monkeypatch.setattr(cls, "_of", classmethod(checking))
    assert {name: run_suite(name, cfg) for name, cfg in GUARDED.items()} == want
    assert seen == set(slots)


def test_report_schema():
    report = run_suite("restrict", RunConfig(samples=3, n_max=1, d_max=2))
    assert set(report) == {
        "suite",
        "config",
        "cases_total",
        "cases_failed",
        "first_failure",
    }
    json.dumps(report)  # must be serializable as-is


def test_reports_are_deterministic():
    cfg = RunConfig(samples=10, n_max=2, d_max=4, seed=5)
    a = run_suite("simil", cfg)
    b = run_suite("simil", RunConfig(samples=10, n_max=2, d_max=4, seed=5))
    assert a == b


def test_seed_changes_sampling():
    a = run_suite("f-axioms", RunConfig(samples=10, seed=0))
    b = run_suite("f-axioms", RunConfig(samples=10, seed=1))
    assert a["cases_failed"] == b["cases_failed"] == 0
    assert a["config"] != b["config"]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense", RunConfig())


def test_failure_reporting_shape():
    # feed failing cases to the driver's tally to pin the failure payload
    cases = [(("key", "inputs text", None, None, None), 1, 2), (("key", "later", None, None, None), 3, 4)]
    report = _report("demo", RunConfig(), cases)
    assert report["cases_failed"] == 2
    assert report["first_failure"] == {
        "inputs": "demo/key: inputs text",
        "expected": "1",
        "got": "2",
    }


def test_boolean_failure_payload():
    F = fields.parse_field("C")
    cases = [
        (("key", "holds", F, W_TARGET, 0), True, True),
        (("key", "fails", F, H_TARGET, 1), True, False),
        (("key", "also fails", None, None, 2), True, False),
    ]
    report = _report("demo", RunConfig(), cases)
    assert (report["cases_total"], report["cases_failed"]) == (3, 2)
    assert report["first_failure"] == {"inputs": "demo/key: fails over C (H, case 1)", "expected": "true", "got": "false"}

