"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines stream.
Real-world results (512-bit factoring in hours, week-long precomputation,
a live election) are not reproducible on a desk; these are the scaled
analogs with every tolerance pinned.
"""

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from random import Random

from downgrade_matrix import run_downgrade_matrix
from votesim import minitls as tls
from votesim.ballots import encode_ballot, make_manifest
from votesim.config import bundled_scenarios, load_config, parse_config
from votesim.engine import run_engine
from votesim.envelope import (
    AuthFailure,
    DigitalEnvelope,
    ServerRole,
    gen_keypair,
    gen_params,
    open_envelope,
    seal,
)
from votesim.report import build_report, serialize_report


def freak_window_flip(seed: int) -> tuple[int, bool, bool]:
    """(honest margin, winner flipped, flip flagged feasible) of the bundled
    freak-window scenario at `seed`.
    """
    cfg = load_config(bundled_scenarios()["freak-window"])
    cfg.seed = seed
    report = build_report(run_engine(cfg))
    flip = report["winner_flip"]
    return report["honest_intent_tally"]["margin"], flip["occurred"], flip["feasible"]


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


class TestAcceptance:
    def test_01_downgrade_matrix(self):
        start = time.perf_counter()
        cells = run_downgrade_matrix(Random(1))
        elapsed = time.perf_counter() - start
        exceptions = []
        for cell in cells:
            want_freak = (not cell.client_patched) and cell.export_rsa_enabled
            want_logjam = cell.export_dhe_enabled
            if cell.freak_succeeded != want_freak or \
                    cell.logjam_succeeded != want_logjam:
                exceptions.append(cell)
        ok = len(cells) == 8 and not exceptions and elapsed < 30
        verdict(1, "downgrade matrix exact over all 8 configurations",
                ok, f"{len(exceptions)} exceptions, {elapsed:.1f}s")

    def test_02_signature_oracle_pinning(self):
        cfg = tls.make_server_config(frozenset(tls.CipherSuite), Random(2))
        server = tls.TlsServer(cfg)
        conn = server.connect(0)
        rng = Random(3)
        export_only = tls.ClientTlsConfig(offered_suites=(tls.CipherSuite.RSA_EXPORT,))
        moduli = set()
        for _ in range(100):
            client, _ = tls.handshake(export_only, conn, rng)
            moduli.add(client.key_material[1][0])
        one_key = len(moduli) == 1
        hourly = set()
        for hour in range(5):
            hourly.add(server.connect(hour * 3600).pinned_temp_key.n)
        five_keys = len(hourly) == 5
        verdict(2, "temp-key pinned per connection, rotated hourly",
                one_key and five_keys,
                f"{len(moduli)} key over 100 renegotiations, "
                f"{len(hourly)} keys over 5 hours")

    def test_03_dlog_cost_asymmetry(self):
        params = tls.gen_export_dhe_params(64, Random(4))
        start = time.perf_counter()
        table = tls.dlog_precompute(params)
        precompute_time = time.perf_counter() - start
        rng = Random(5)
        times = []
        for _ in range(20):
            x = rng.randrange(params.q)
            y = pow(params.g, x, params.p)
            t0 = time.perf_counter()
            got = tls.dlog_individual(y, table)
            times.append(time.perf_counter() - t0)
            assert got == x % params.q
        mean_individual = sum(times) / len(times)
        ratio = mean_individual / precompute_time
        verdict(3, "individual dlog <= 1% of precompute at 64-bit",
                ratio <= 0.01,
                f"ratio {ratio:.4%}, precompute {precompute_time:.2f}s")

    def test_04_envelope_contract(self):
        params = gen_params(64, Random(6))
        election = gen_keypair(params, Random(7))
        verification = gen_keypair(params, Random(8))
        manifest = make_manifest(num_groups=8, num_candidates=16, num_assembly=4)
        rng = Random(9)
        groups = manifest.groups
        dual = tamper = round_trip = 0
        n = 1000
        for i in range(n):
            ballot = manifest.cards[groups[i % len(groups)]]
            data = encode_ballot(ballot, manifest)
            env = seal(data, election.public(), verification.public(), rng)
            via_e = open_envelope(env, ServerRole.ELECTION, election)
            via_v = open_envelope(env, ServerRole.VERIFICATION, verification)
            if via_e == via_v:
                dual += 1
            if via_e == data:
                round_trip += 1
            pos = rng.randrange(len(env.vote_ciphertext))
            flipped = (env.vote_ciphertext[:pos]
                       + bytes([env.vote_ciphertext[pos] ^ (1 + rng.randrange(255))])
                       + env.vote_ciphertext[pos + 1:])
            bad = DigitalEnvelope(
                wrapped_key_election=env.wrapped_key_election,
                wrapped_key_verification=env.wrapped_key_verification,
                nonce=env.nonce, vote_ciphertext=flipped, tag=env.tag,
                client_sig=env.client_sig)
            try:
                open_envelope(bad, ServerRole.ELECTION, election)
            except AuthFailure:
                tamper += 1
        ok = dual == tamper == round_trip == n
        verdict(4, "1000 seals: dual-open, tamper-reject, round-trip all 100%",
                ok, f"dual {dual}/{n} tamper {tamper}/{n} rt {round_trip}/{n}")

    def test_05_honest_election_50_seeds(self, ivr_call_times):
        bad_tallies = 0
        bad_readbacks = 0
        late_successes = 0
        readbacks = 0
        for seed in range(50):
            cfg = parse_config({
                "schema_version": 1, "name": "honest-acceptance", "seed": seed,
                "voters": 1000,
                "manifest": {"groups": 8, "candidates": 32, "assembly": 8},
                "behavior": {"p_verify_ivr": 0.3, "p_check_receipt_only": 0.2,
                             "verify_delay_min": 300, "verify_delay_max": 7200},
                "tls": {"enabled": False},
            })
            engine = run_engine(cfg)
            if engine.tally.counts != engine.intent_tally.counts:
                bad_tallies += 1
            called = ivr_call_times(engine)
            for v in engine.voters.values():
                if v.verify_outcome == "read_back":
                    readbacks += 1
                    if called[v.voter_id] >= engine.config.timeline.polls_close:
                        late_successes += 1
                    if v.verify_matched is not True:
                        bad_readbacks += 1
        ok = bad_tallies == 0 and bad_readbacks == 0 and late_successes == 0 \
            and readbacks > 1000
        verdict(5, "honest runs: exact tallies, exact read-backs, none after close",
                ok, f"{bad_tallies} bad tallies, {bad_readbacks} bad read-backs, "
                    f"{late_successes} late successes over {readbacks} read-backs")

    def test_06_last_minute_detection_zero(self):
        nonzero = 0
        total_manipulated = 0
        for seed in range(20):
            cfg = parse_config({
                "schema_version": 1, "name": "last-minute-acceptance",
                "seed": seed, "voters": 500,
                "manifest": {"groups": 8, "candidates": 32, "assembly": 8},
                "behavior": {"p_verify_ivr": 0.5, "verify_delay_min": 600,
                             "verify_delay_max": 3600},
                "tls": {"enabled": False},
                "attacks": {"granted_compromise_rate": 1.0,
                            "last_minute": {"enabled": True,
                                            "safety_window": 600},
                            "target_group": "g02"},
            })
            m = build_report(run_engine(cfg))["detection"].get("last_minute")
            assert m is not None and m["manipulated"] > 0
            total_manipulated += m["manipulated"]
            if m["detection_ratio"] != 0.0:
                nonzero += 1
        verdict(6, "last-minute window detection ratio exactly 0 over 20 seeds",
                nonzero == 0, f"{total_manipulated} manipulated, "
                              f"{nonzero} seeds with nonzero ratio")

    def test_07_clash_complaint_statistics(self):
        card_rate, p_verify = 0.40, 0.2
        cfg = parse_config({
            "schema_version": 1, "name": "clash-acceptance", "seed": 11,
            "voters": 10_000,
            "manifest": {"groups": 8, "candidates": 32, "assembly": 8},
            "behavior": {"card_rate": card_rate, "p_verify_ivr": p_verify,
                         "p_check_receipt_only": 0.3},
            "tls": {"enabled": False},
            "attacks": {"clash": {"enabled": True, "prediction": "card"},
                        "target_group": "g02"},
        })
        m = build_report(run_engine(cfg))["detection"]["clash"]
        p = (1 - card_rate) * p_verify
        expect = m["manipulated"] * p
        sigma = math.sqrt(m["manipulated"] * p * (1 - p))
        within = abs(m["complaints_true"] - expect) <= 3 * sigma

        perfect_cfg = parse_config({
            "schema_version": 1, "name": "clash-perfect", "seed": 12,
            "voters": 3000,
            "manifest": {"groups": 8, "candidates": 32, "assembly": 8},
            "behavior": {"card_rate": card_rate, "p_verify_ivr": p_verify,
                         "p_check_receipt_only": 0.3},
            "tls": {"enabled": False},
            "attacks": {"clash": {"enabled": True, "prediction": "perfect"},
                        "target_group": "g02"},
        })
        perfect = build_report(run_engine(perfect_cfg))["detection"]["clash"]
        silent = perfect["complaints_true"] == 0 and perfect["manipulated"] > 0
        verdict(7, "clash complaints match analytic; perfect prediction silent",
                within and silent,
                f"true {m['complaints_true']} vs analytic {expect:.0f} "
                f"(3 sigma {3 * sigma:.0f}); perfect: "
                f"{perfect['complaints_true']}/{perfect['manipulated']}")

    def test_08_margin_flip_100_seeds(self):
        # one worker per CPU; map() hands the results back in seed order
        with ProcessPoolExecutor(max_workers=2,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(freak_window_flip, range(100)))
        assert [margin for margin, _, _ in results] == [32] * 100
        flips = sum(occurred for _, occurred, _ in results)
        feasible_flags = sum(feasible for _, _, feasible in results)
        ok = flips >= 95 and feasible_flags >= 95
        verdict(8, "window-scale downgrade flips the winner in >=95% of seeds",
                ok, f"{flips}/100 flips, {feasible_flags}/100 flagged feasible")

    def test_09_blind_auditor(self):
        path = bundled_scenarios()["blind-auditor"]
        honest_cfg = load_config(path)
        honest_cfg.audit.mode = "honest"
        honest = run_engine(honest_cfg)
        login_of = {voter: login for login, voter in honest.registration.owner.items()}
        ledger_ids = sorted({login_of[voter_id]
                             for voter_id in honest.attacker.manipulation_ledger})
        audit_ids = sorted({i.login_id for i in honest.audit.inconsistencies})
        exact = audit_ids == ledger_ids and len(ledger_ids) > 0

        blind = run_engine(load_config(path))
        blind_empty = blind.audit.inconsistencies == []
        tally_wrong = blind.tally.counts != blind.intent_tally.counts
        verdict(9, "honest audit lists exactly the manipulated ids; blind eye none",
                exact and blind_empty and tally_wrong,
                f"honest {len(audit_ids)}/{len(ledger_ids)} ids, "
                f"blind {len(blind.audit.inconsistencies)} listed, "
                f"tally wrong: {tally_wrong}")

    def test_10_determinism_all_bundled(self):
        mismatches = []
        for name, path in sorted(bundled_scenarios().items()):
            a = run_engine(load_config(path))
            b = run_engine(load_config(path))
            if serialize_report(build_report(a)) != serialize_report(build_report(b)) \
                    or a.sim.trace != b.sim.trace:
                mismatches.append(name)
        verdict(10, "byte-identical report and trace on rerun, all scenarios",
                not mismatches, f"mismatches: {mismatches or 'none'}")
