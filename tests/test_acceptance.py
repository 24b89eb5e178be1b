"""Acceptance sweep: one test per advertised guarantee, one verdict line each.

Every test prints a single ``CRITERION k: PASS/FAIL`` line (visible under
``pytest -s``; under plain ``pytest -v`` the per-test PASSED/FAILED line carries
the same information).  The sweeps are exhaustive at desk scale -- p in
{3, 5, 7}, conductors <= 3 for GL(1), dimensions <= 4 -- and every comparison
in exact mode is an equality in a cyclotomic field, never a tolerance.  The
float shadow (criterion 9) re-runs the same instances in complex arithmetic
and must agree with the exact values to 1e-9 relative.

Heavy artifacts (the Kloosterman survey, the block-built family, the duality
reports) are computed once and shared between criteria via cached helpers, so
the tests stay order-independent.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from epsilonlab.bessel import bessel_charsum, duality_check, measure_prefactor
from epsilonlab.characters import (
    MultChar,
    chars_with_conductor,
    enumerate_chars,
    represent_at_level,
    trivial_char,
    unit_group,
    v_chi,
)
from epsilonlab.kloosterman import (
    KLQuery,
    build_gauss_table,
    direct_term_count,
    kl_direct,
    kl_via_dft,
)
from epsilonlab.local_factors import (
    Block,
    CertificateTable,
    EpsMonomial,
    RepnData,
    enumerate_reps,
    eps_gl1,
    eps_rep_twisted,
    gauss_sum,
    gl1_stability_check,
    stability_check,
    stability_rhs,
    steinberg,
)
from epsilonlab.padic import PadicNumber
from epsilonlab.scalars import EXACT, FLOAT, CycNumber, ScaledScalar

GL1_PRIMES = (3, 5, 7)
GL1_CONDUCTOR_MAX = 3
STABILITY_PRIMES = (3, 5)
KL_CELLS = tuple((p, t) for p in (3, 5, 7) for t in (1, 2))
KL_TERM_CAP = 10 ** 6

# deterministic strides for the direct-engine cross-slice of criterion 4;
# sized so the slice costs seconds while still touching every conductor layer
DIRECT_SLICE_STRIDE = {3: 293, 5: 230249}


def _backend(mode: str):
    return EXACT if mode == "exact" else FLOAT


def _report(num: int, failures: list, summary: str) -> None:
    state = "FAIL" if failures else "PASS"
    print("CRITERION %d: %s — %s" % (num, state, summary))
    assert not failures, "criterion %d: %d failing instances, first few: %r" % (
        num, len(failures), failures[:5])


def _cx(x) -> complex:
    return x.to_complex() if isinstance(x, CycNumber) else complex(x)


def _scaled_agree(exact: ScaledScalar, flt: ScaledScalar) -> bool:
    ce, cf = _cx(exact.coeff), _cx(flt.coeff)
    if abs(ce) <= 1e-12 and abs(cf) <= 1e-12:
        return True
    return exact.qexp == flt.qexp and FLOAT.eq(ce, cf)


def _monomial_agree(exact: EpsMonomial, flt: EpsMonomial) -> bool:
    return exact.xexp == flt.xexp and _scaled_agree(exact.value, flt.value)


def _rep_key(pi: RepnData) -> tuple:
    return tuple(sorted((b.tau.level, b.tau.k, b.size) for b in pi.blocks))


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _ramified_chars(p: int) -> tuple:
    out = []
    for a in range(1, GL1_CONDUCTOR_MAX + 1):
        out.extend(chars_with_conductor(p, a))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _stability_family(p: int) -> tuple:
    """Every block-built representation with dim <= 4 and conductor <= 4."""
    return tuple(enumerate_reps(p, 4, 4))


@functools.lru_cache(maxsize=None)
def _direct_slice(mode: str) -> list:
    """Deterministic stride through the criterion-4 grid with the slow engine.

    Returns (prime, rep key, a(chi), chi.k, holds, lhs, rhs) per sampled pair.
    """
    backend = _backend(mode)
    rows = []
    for p in STABILITY_PRIMES:
        stride = DIRECT_SLICE_STRIDE[p]
        k = 0
        for pi in _stability_family(p):
            a_pi = pi.conductor_exponent
            for a in sorted({max(a_pi, 1), a_pi + 1}):
                for chi in chars_with_conductor(p, a):
                    k += 1
                    if k % stride:
                        continue
                    rep = stability_check(pi, chi, backend)
                    rows.append((p, _rep_key(pi), a, chi.k, rep.holds, rep.lhs, rep.rhs))
    return rows


@functools.lru_cache(maxsize=None)
def _kl_survey(mode: str) -> tuple:
    """kl_direct vs kl_via_dft on every instance under the term cap.

    Returns (mismatch list, {instance: complex value of kl_direct}, skipped).
    """
    backend = _backend(mode)
    mismatches, values, skipped = [], {}, 0
    for (p, t) in KL_CELLS:
        table = build_gauss_table(p, t, backend=backend)
        omegas = list(enumerate_chars(p, t))
        ys = [int(u) for u in unit_group(p, t).units()]
        for n in (2, 3, 4):
            for omega in omegas:
                for y in ys:
                    query = KLQuery(omega, n, y, t)
                    if direct_term_count(query) > KL_TERM_CAP:
                        skipped += 1
                        continue
                    direct = kl_direct(query, backend)
                    viadft = kl_via_dft(query, table)
                    if not backend.eq(direct, viadft):
                        mismatches.append((p, t, n, omega.k, y))
                    values[(p, t, n, omega.k, y)] = _cx(direct)
    return mismatches, values, skipped


def _duality_probes() -> list:
    """Rank-2 and rank-3 representations the duality sweep drives."""
    probes = []
    for p in STABILITY_PRIMES:
        probes.append((p, steinberg(MultChar(p, 1, 1), 2)))
        probes.append((p, steinberg(trivial_char(p), 3)))
    # two non-Steinberg shapes at the same conductor, to vary the block pattern
    probes.append((5, RepnData.of(Block(MultChar(5, 1, 1)), Block(MultChar(5, 1, 3)))))
    probes.append((3, RepnData.of(Block(MultChar(3, 1, 1), 2), Block(trivial_char(3)))))
    return probes


@functools.lru_cache(maxsize=None)
def _duality_survey(mode: str) -> list:
    """duality_check at every level <= -v(z), -v(z) in {a(pi), a(pi)+1}.

    Returns (prime, rep key, t, chi level, chi.k, a(chi), a(pi), report) rows.
    """
    backend = _backend(mode)
    rows = []
    for p, pi in _duality_probes():
        a_pi = pi.conductor_exponent
        for t in (a_pi, a_pi + 1):
            z = PadicNumber(p, Fraction(1, p ** t))
            for chi in enumerate_chars(p, t):
                rep = duality_check(pi, z, chi, backend=backend)
                rows.append((p, _rep_key(pi), t, chi.level, chi.k,
                             chi.conductor_exponent, a_pi, rep))
    return rows


@functools.lru_cache(maxsize=None)
def _prefactor_reports() -> list:
    """Exact charsum/Kloosterman constants on the full (n, t) grid."""

    def probe(p, n):
        if n == 2:
            return steinberg(MultChar(p, 1, 1), 2)
        if n == 3:
            return steinberg(trivial_char(p), 3)
        return RepnData.of(Block(trivial_char(p), n - 1), Block(trivial_char(p)))

    reports = []
    for p, ts in ((3, (2, 3)), (5, (2,))):
        for n in (2, 3, 4):
            for t in ts:
                z = PadicNumber(p, Fraction(1, p ** t))
                reports.append((p, n, t, measure_prefactor(probe(p, n), z)))
    return reports


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_criterion_1_gauss_sum_modulus():
    """norm_squared(tau(chi)) = q^{a(chi)} for every ramified chi, a <= 3."""
    failures = []
    count = 0
    for p in GL1_PRIMES:
        for chi in _ramified_chars(p):
            a = chi.conductor_exponent
            tau = gauss_sum(chi, EXACT)
            if not EXACT.eq(tau.norm_squared(), Fraction(p) ** a):
                failures.append((p, chi.level, chi.k))
            count += 1
    _report(1, failures, "norm_squared(tau(chi)) = q^a for all %d ramified "
            "characters, p in %s, a <= %d" % (count, GL1_PRIMES, GL1_CONDUCTOR_MAX))


def test_criterion_2_gl1_functional_equation():
    """eps(chi) * eps(chi^{-1}) reflected at the center multiplies to chi(-1)."""
    failures = []
    count = 0
    for p in GL1_PRIMES:
        for chi in _ramified_chars(p):
            prod = eps_gl1(chi) * eps_gl1(chi.inv()).reflect()
            want = EpsMonomial(ScaledScalar.of(EXACT.rational(chi.parity_sign())), 0)
            if not prod.equals(want, p, EXACT):
                failures.append((p, chi.level, chi.k))
            count += 1
    _report(2, failures, "eps(chi) eps~(chi^-1) = chi(-1) with zero formal "
            "exponent, exhaustively over the same %d characters" % count)


def _gl1_pairs(p: int):
    """(mu, chi) with chi ramified, a(chi) <= 3 and 2 a(mu) <= a(chi)."""
    mus = [trivial_char(p)] + chars_with_conductor(p, 1)
    for chi in _ramified_chars(p):
        for mu in mus:
            if 2 * mu.conductor_exponent <= chi.conductor_exponent:
                yield mu, chi


def test_criterion_3_gl1_twist_stability():
    """eps(mu chi) = mu(v_chi) eps(chi) for every admissible pair, and the
    value mu(v) does not depend on which representative of the class is used."""
    failures = []
    pairs = probes = 0
    for p in GL1_PRIMES:
        for mu, chi in _gl1_pairs(p):
            if not gl1_stability_check(mu, chi, EXACT).holds:
                failures.append((p, mu.k, chi.level, chi.k, "canonical"))
            pairs += 1
            # representative independence: same check with shifted unit lifts
            rc = v_chi(chi)
            if rc.vacuous or mu.conductor_exponent == 0:
                continue
            for rep in rc.lifts()[:3]:
                if not gl1_stability_check(mu, chi, EXACT, vclass_rep=rep).holds:
                    failures.append((p, mu.k, chi.level, chi.k, rep))
                probes += 1
    _report(3, failures, "%d admissible (mu, chi) pairs hold, and %d shifted "
            "class representatives give the same verdict" % (pairs, probes))


def test_criterion_4_rep_twist_stability():
    """eps(chi x pi) = eps(omega chi) eps(chi)^{n-1} for every block-built pi
    with a(pi) <= 4, dim <= 4, and every chi with a(pi) <= a(chi) <= a(pi)+1."""
    failures = []
    checked = 0
    for p in STABILITY_PRIMES:
        tables = {}
        for pi in _stability_family(p):
            a_pi = pi.conductor_exponent
            for a in sorted({max(a_pi, 1), a_pi + 1}):
                if a not in tables:
                    tables[a] = CertificateTable(p, a)
                table = tables[a]
                rows = np.arange(len(table.row_ks))
                res = table.check_pairs(pi, rows)
                checked += len(rows)
                if not res.all():
                    for r in np.nonzero(~res)[0]:
                        failures.append((p, _rep_key(pi), a, int(table.row_ks[int(r)])))
        # the unramified-twist cell (a(pi) = a(chi) = 0): both sides are
        # unramified monomials, so compare them head-on
        for n in range(1, 5):
            pi = RepnData.of(*(Block(trivial_char(p)) for _ in range(n)))
            chi = trivial_char(p)
            lhs = eps_rep_twisted(pi, chi, backend=EXACT)
            rhs = stability_rhs(pi, chi, EXACT)
            if not lhs.equals(rhs, p, EXACT):
                failures.append((p, _rep_key(pi), 0, 0))
            checked += 1
    # cross-validate the certificate engine against the direct one on a
    # deterministic stride through the same grid
    for p, key, a, k, holds, _, _ in _direct_slice("exact"):
        if not holds:
            failures.append((p, key, a, k, "direct-engine"))
    n_direct = len(_direct_slice("exact"))
    families = {p: len(_stability_family(p)) for p in STABILITY_PRIMES}
    _report(4, failures, "%d (pi, chi) pairs across families of %s "
            "representations verified by certificate, %d re-checked directly"
            % (checked, families, n_direct))


def test_criterion_5_equal_central_char_pairs():
    """Distinct block-built pi_1 != pi_2 with the same central character have
    identical twisted eps at every chi with a(chi) >= max of the conductors."""
    failures = []
    summary = []
    for p in STABILITY_PRIMES:
        for n in (2, 3, 4):
            groups: dict = {}
            a_max = 0
            for a_max in (2, 3, 4):
                groups = {}
                for r in enumerate_reps(p, n, a_max):
                    if r.dim != n:
                        continue
                    om = r.central_char()
                    fin = represent_at_level(
                        om.finite, max(om.finite.conductor_exponent, 1))
                    groups.setdefault((fin.level, fin.k, om.shift), []).append(r)
                pairs = sum(len(g) * (len(g) - 1) // 2 for g in groups.values())
                if pairs >= 20:
                    break
            eps_cache: dict = {}

            def eps_of(r, chi):
                key = (_rep_key(r), chi.level, chi.k)
                if key not in eps_cache:
                    eps_cache[key] = eps_rep_twisted(r, chi, backend=EXACT)
                return eps_cache[key]

            verified = 0
            for members in groups.values():
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        r1, r2 = members[i], members[j]
                        assert _rep_key(r1) != _rep_key(r2)
                        a_star = max(r1.conductor_exponent, r2.conductor_exponent, 1)
                        for chi in chars_with_conductor(p, a_star):
                            if not eps_of(r1, chi).equals(eps_of(r2, chi), p, EXACT):
                                failures.append(
                                    (p, n, _rep_key(r1), _rep_key(r2), chi.k))
                        verified += 1
            if verified < 20:
                failures.append((p, n, "only %d pairs available" % verified))
            summary.append("p=%d n=%d: %d pairs (block pool up to conductor %d)"
                           % (p, n, verified, a_max))
    _report(5, failures, "; ".join(summary))


def test_criterion_6_kloosterman_cross_algorithm():
    """kl_direct agrees with kl_via_dft on every instance within the term cap."""
    mismatches, values, skipped = _kl_survey("exact")
    failures = list(mismatches)
    if skipped:
        # at this scale the largest grid is 42^3 = 74088 terms, well under cap
        failures.append(("unexpected skips", skipped))
    _report(6, failures, "both evaluations agree exactly on all %d instances "
            "(n in {2,3,4}, p in {3,5,7}, t in {1,2}; none over the %d-term cap)"
            % (len(values), KL_TERM_CAP))


def test_criterion_7_bessel_duality():
    """duality_check passes for every chi of level <= -v(z); both sides vanish
    exactly below the support conductor (in particular for a(chi) < a(pi))."""
    failures = []
    rows = _duality_survey("exact")
    for p, key, t, level, k, a_chi, a_pi, rep in rows:
        if not rep.passed:
            failures.append((p, key, t, level, k, "failed"))
        if a_chi < a_pi and not rep.both_vanish:
            failures.append((p, key, t, level, k, "expected vanishing"))
        # sharper support law the sweep actually exhibits: the transform of a
        # level-t test function is carried by conductor-exactly-t characters
        if rep.both_vanish != (a_chi < t):
            failures.append((p, key, t, level, k, "support boundary"))
    _report(7, failures, "%d duality identities hold; the two sides vanish "
            "together precisely below full conductor" % len(rows))


def test_criterion_8_bessel_prefactor_measurement():
    """The charsum/Kloosterman ratio is one fixed power of q on each shell
    (y-independence is asserted inside the measurement), the measured exponent
    is t(n-1)(n-2)/2 with unit cofactor, and of the three published exponent
    displays only n=2 (third display) and n=3 (first display) are consistent;
    at n=4 the measurement contradicts all three."""
    failures = []
    expected_matches = {2: ("cor13",), 3: ("lemma41",), 4: ()}
    for p, n, t, rep in _prefactor_reports():
        wanted = Fraction(t * (n - 1) * (n - 2), 2)
        if rep.measured_exponent != wanted or rep.cofactor != 1:
            failures.append((p, n, t, str(rep.measured_exponent), str(rep.cofactor)))
        cands = {
            "lemma41": Fraction(t * ((n - 1) ** 2 - 2), 2),
            "prop42": Fraction(t * (n - 4) * (n - 1), 2),
            "cor13": Fraction(t * (n - 4) * (n - 2), 2),
        }
        if rep.candidates != cands:
            failures.append((p, n, t, "candidate displays", rep.candidates))
        flagged = tuple(sorted(name for name, hit in rep.matches.items() if hit))
        if flagged != tuple(sorted(expected_matches[n])):
            failures.append((p, n, t, "matches", rep.matches))
    _report(8, failures, "measured constant is q^{t(n-1)(n-2)/2} with cofactor "
            "1 on all %d cells; match pattern n=2:third, n=3:first, n=4:none "
            "(the three displays are mutually inconsistent)" % len(_prefactor_reports()))


def test_criterion_9_backend_agreement():
    """Re-running the sweeps in float mode reproduces the exact values to 1e-9
    relative and never changes a verdict."""
    failures = []
    compared = 0

    # Gauss sums and the functional equation
    for p in GL1_PRIMES:
        for chi in _ramified_chars(p):
            tf = gauss_sum(chi, FLOAT)
            te = gauss_sum(chi, EXACT)
            if not FLOAT.eq(tf, te.to_complex()):
                failures.append(("gauss", p, chi.level, chi.k))
            prod = eps_gl1(chi, backend=FLOAT) * eps_gl1(chi.inv(), backend=FLOAT).reflect()
            want = EpsMonomial(ScaledScalar.of(FLOAT.rational(chi.parity_sign())), 0)
            if not prod.equals(want, p, FLOAT):
                failures.append(("functional-equation", p, chi.level, chi.k))
            compared += 2

    # GL(1) stability on a slice of the admissible pairs
    for p in GL1_PRIMES:
        for idx, (mu, chi) in enumerate(_gl1_pairs(p)):
            if idx % 7:
                continue
            re_, rf = gl1_stability_check(mu, chi, EXACT), gl1_stability_check(mu, chi, FLOAT)
            if not rf.holds or not _scaled_agree(re_.lhs, rf.lhs):
                failures.append(("gl1-stability", p, mu.k, chi.level, chi.k))
            compared += 1

    # block stability: the direct slice, value for value
    exact_rows, float_rows = _direct_slice("exact"), _direct_slice("float")
    assert len(exact_rows) == len(float_rows)
    for er, fr in zip(exact_rows, float_rows):
        if er[:4] != fr[:4]:
            failures.append(("stability-slice-keys", er[:4], fr[:4]))
            continue
        if not fr[4] or not _monomial_agree(er[5], fr[5]) or not _monomial_agree(er[6], fr[6]):
            failures.append(("stability-slice", er[:4]))
        compared += 1

    # Kloosterman: full survey, pointwise
    ke = _kl_survey("exact")
    kf = _kl_survey("float")
    if kf[0]:
        failures.append(("kloosterman-float-mismatches", len(kf[0])))
    if set(ke[1]) != set(kf[1]):
        failures.append(("kloosterman-instance-sets",))
    else:
        for key, ve in ke[1].items():
            if not FLOAT.eq(ve, kf[1][key]):
                failures.append(("kloosterman-value", key))
            compared += 1

    # duality: full survey, verdicts and the non-vanishing side values
    de, df = _duality_survey("exact"), _duality_survey("float")
    assert len(de) == len(df)
    for (pe, keye, te, le, ke_, ae, api_e, re_), (_, _, _, _, _, _, _, rf) in zip(de, df):
        if re_.passed != rf.passed or re_.both_vanish != rf.both_vanish:
            failures.append(("duality-verdict", pe, keye, te, le, ke_))
        elif not re_.both_vanish and not _monomial_agree(re_.lhs, rf.lhs):
            failures.append(("duality-value", pe, keye, te, le, ke_))
        compared += 1

    # Bessel transform samples on two support shells
    for p, n, t in ((3, 3, 2), (5, 2, 2)):
        pi = steinberg(trivial_char(p), 3) if n == 3 else steinberg(MultChar(p, 1, 1), 2)
        z = PadicNumber(p, Fraction(1, p ** t))
        for y0 in map(int, unit_group(p, t).units()):
            y = PadicNumber(p, Fraction(y0) * Fraction(p) ** (n * z.val))
            be = bessel_charsum(pi, z, y, backend=EXACT)
            bf = bessel_charsum(pi, z, y, backend=FLOAT)
            if be.support_flag != bf.support_flag or not _scaled_agree(be.value, bf.value):
                failures.append(("bessel-shell", p, n, t, y0))
            compared += 1

    _report(9, failures, "float shadow matches exact values on %d comparisons "
            "at 1e-9 relative, with identical verdicts everywhere" % compared)
