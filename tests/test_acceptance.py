"""Acceptance criteria, one test per criterion.

Each test drives the named verification suites at the stated scale, asserts
the stated tolerances (everything here is exact, so tolerances are equalities
and uniqueness assertions), enforces the stated runtime budget, and prints
one PASS line."""

import hashlib
import json
import time

import pytest

from btbuildings.verify import SUITES, Config, run_suite


def _run(names, budget_seconds, criterion, config=None):
    config = config or Config(seed=20260808)
    t0 = time.time()
    reports = {}
    for name in names:
        rep = run_suite(name, config)
        reports[name] = rep
        assert rep["passed"], f"criterion {criterion}: suite {name} failed: {rep}"
    elapsed = time.time() - t0
    assert elapsed < budget_seconds, \
        f"criterion {criterion} exceeded budget: {elapsed:.1f}s >= {budget_seconds}s"
    print(f"[criterion {criterion}] PASS ({elapsed:.1f}s < {budget_seconds}s): "
          f"{', '.join(names)}")
    return reports


def test_criterion_1_gaussian_binomials():
    reports = _run(["gaussian-binomials"], 5, 1)
    counts = reports["gaussian-binomials"]["counts"]
    # q in {2,3}, d <= 3, all w present; SL_2 tree degree q+1
    seen = {(c["q"], c["d"], c["w"]) for c in counts}
    for q in (2, 3):
        for d in range(1, 4):
            for w in range(1, d + 1):
                assert (q, d, w) in seen
        assert any(c["q"] == q and c["d"] == 1 and c["enumerated"] == q + 1
                   for c in counts)


def test_criterion_2_involution():
    _run(["involution"], 10, 2)


def test_criterion_3_projection_agreement():
    _run(["projection-agreement"], 30, 3)


def test_criterion_4_extension():
    _run(["extension", "nu-distance"], 30, 4)


def test_criterion_5_alcove_counts():
    _run(["eta-counts", "eta-coverage"], 10, 5)


def test_criterion_6_automorphisms():
    _run(["aut-order", "aut-decomposition", "label-action-stability",
          "normal-form"], 60, 6)


def test_criterion_7_labelling_rigidity():
    _run(["labelling-propagation", "apartment-rigidity"], 30, 7)


def test_criterion_8_rigid_points():
    _run(["deform-path", "omega-existence", "diagonalize-reverify",
          "rigid-axioms", "filtration", "tau-j"], 60, 8)


# SHA-256 of each suite's artifact at seed 99.  A change that keeps the
# outputs keeps these; one that alters an output updates them on purpose.
SEED_99_DIGESTS = dict(line.split() for line in """
apartment-rigidity 9948c21f8360e4afe68295a9fe43e68911abb2a3681f3e0d5ce06b67a86e2850
aut-decomposition cf8013f9e4139f86069ea8e738dd7408c5d587df9a1a2dc212fa2fa55ce3cf75
aut-order e07c51dd4b5075f894e21f73d40b310b6c14dff8c81bd86c5e31f5be28a78e48
canonical-stability ad99c8b5a0728ce3f63edd00de304a7576d54523f7601aa575ac463be7bc67a7
deform-path d8c126aadf4fa18af6d8bd96b510a39343d90e54aa4ef1be2e4d6439a6108100
diagonalize-reverify f6fc1c5664e6bed4850c34c9fca0fdf7c2913837e9a61dd3cc45788732924621
directed-edges bb9673c9a64da31ead08fff33f5585b85113274b9541f17ba819da52f158a8e7
embed 2a91570b34cf10232480431252bbdf656dcf0d52f735abe6e1f898857ccdd4c2
eta-counts 0d1cb1e22986880291b63284ec5fb34ced760ac14d6d013e19689eb27407e304
eta-coverage 1e0163ee0c2cb663c1c7d945e8bd18715adb1af0f2f52547ca700aa15c031f41
extension 9c576cfba2dca365162852ba44095592349540479f8dcaaf926bf50e9106df4f
filtration 0e7e3a617945d122180abd70bc7bfa8e28448ba9cac11b5d0e742a6438b035ef
gaussian-binomials 104b92d86a4578f176fdf693da741eb663d0438e9ec7ab4b443b80e06f95a29c
index-bfs 006caa4f92305a38f4412c654ddbcfce3ba461acb5734d4b6962a25e179a65a8
involution 4f148a1dc2021e69a636ac3dd5dc338aff16860ab13af529b0273a3b4f2e87fa
label-action-stability 06c6f11a6748391851a536d50b496159b0665863a28b8a520b1850c4a44f5bcd
label-equivariance 8701e2feb33b2615ea8722c767187377857834a5140278e174bf08a7f68eeb32
label-shift 3a5bcb5c67a063c8527bc0e1bc984c20d6da24afd5f050c553d1f2172ea5eedd
labelling-propagation 7edb66af3c6ec5adf068d5edf405f4c70ab21ead449805d61699084c2ad87b75
marking-extension ecb469f61164554b7ca758fd14d69143c69f700739b1826b4d098951d5181af8
normal-form 89da110b9f967a569837c7288e247363bf1f6d923cb5778327585441728aa5ff
nu-distance 901ac8ebb48d46ae604b95b50426328fcc8e84c13aa537af05f5cf8217b4dcb6
omega-existence af44738acf16f2e1c06384d7d1a3bd5f7fa88144382df051c864771f93bf171d
projection-agreement 4b16527ee1201520b9bc3dd754a25a848eeddb2c13f7f8fd62cd78f6fd82db32
residues 7d5c9b9473b912ada7bfd3d6180c0c31b1357846d50f6d11b869003470d89bb2
rigid-axioms 246dcd28a805265365a8af36f208db6d86e70d6032460071cd1e32f2543d6d05
tau-j 827c1ff9d946e91475f4ccf0d8c8f620a2ee2d6925d59d5f1d49431570c4b9e8
valuation-axioms ad919e4b9a30161ea2ac7ceb2642ac6672b0beb0c0973b06581f153033de5693
""".strip().splitlines())


def test_criterion_9_determinism():
    t0 = time.time()
    assert sorted(SUITES) == sorted(SEED_99_DIGESTS)
    for name in sorted(SUITES):
        r1 = json.dumps(run_suite(name, Config(seed=99)), sort_keys=True)
        r2 = json.dumps(run_suite(name, Config(seed=99)), sort_keys=True)
        assert r1 == r2, f"suite {name} is not byte-deterministic"
        digest = hashlib.sha256(r1.encode()).hexdigest()
        assert digest == SEED_99_DIGESTS[name], \
            f"suite {name}: artifact differs from the recorded seed-99 output"
    print(f"[criterion 9] PASS ({time.time() - t0:.1f}s): byte-identical "
          f"artifacts for all {len(SUITES)} suites at a fixed seed, equal "
          f"to the recorded digests")
