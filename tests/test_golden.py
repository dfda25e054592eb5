"""Golden behaviour oracle: every bundled scenario at seeds 42, 1 and 2
must reproduce the sha256 of its serialized report and its trace_digest
exactly as recorded in tests/golden/digests.json. So must each entry of
OVERRIDES: a bundled scenario with some keys of its YAML tree changed,
covering paths no bundled scenario reaches; the changed tree goes through
`parse_config`, so an override is one a scenario file could hold.

The digests are recomputed in two child processes running side by side,
each on every other run and each with a PYTHONHASHSEED that differs from
this process's, through the calls `votesim run` makes (`load_config`'s
YAML load and `parse_config`, with the seed set as `--seed` would set
it); their results are merged in key order. A change that alters RNG draw
order or trace text changes these digests; such a change must say so and
regenerate the file:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import functools
import hashlib
import json
import os
import subprocess
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "digests.json")
SEEDS = (42, 1, 2)
# "<scenario>+<label>" -> {dotted YAML key path: value}
OVERRIDES = {
    # the honest auditor's findings on server-rewritten records
    "blind-auditor+honest-audit": {"audit.mode": "honest"},
    # registrants who notice the assigned PIN escape the clash front
    "clash+pin-suspicion": {"behavior.p_pin_suspicion": 0.3},
    # both downgrades: a rejected FREAK attempt, then Logjam on the retry
    "freak-window+logjam": {
        "attacks.logjam.enabled": True,
        "tls.third_party_suites": ["RSA", "RSA_EXPORT", "DHE", "DHE_EXPORT"]},
    # clash victims reach the attacker IVR, which reads back their intent
    "clash+fake-ivr": {"attacks.fake_ivr.enabled": True},
    # true complaints under two strategies: a window wider than the verify
    # delay leaves some last-minute voters time to call the genuine IVR
    "fake-ivr+last-minute": {
        "attacks.last_minute.enabled": True,
        "attacks.last_minute.safety_window": 3600,
        "attacks.fake_ivr.dial_genuine_rate": 0.5},
    # a below-the-line card whose first preference sits in another group,
    # so its followers count for g02
    "honest-baseline+btl-card": {
        "manifest.cards": {"g01": {"assembly": ["a01", "a02"],
                                   "council": ["c002", "c001", "c009"],
                                   "mode": "btl"}}},
    # leanings drawn per voter from uneven weights; unlisted groups get none
    "honest-baseline+leaning-weights": {
        "behavior.leaning_weights": {"g01": 3.0, "g02": 1.0, "g05": 0.5}},
    # quotas for 270 of the 500 voters; the rest draw a group at random
    "honest-baseline+partial-quotas": {
        "behavior.leaning_counts": {"g01": 150, "g02": 120}},
    # the clash front pools look-alikes by their exact ballot
    "clash+perfect-prediction": {"attacks.clash.prediction": "perfect"},
    # false complaints at both IVRs: clash victims reach the attacker's,
    # every other verifying voter the genuine one
    "clash+false-complaints": {
        "attacks.fake_ivr.enabled": True,
        "behavior.p_false_complaint": 0.1},
    # phone votes read off the voice server, joined to names at registration
    "linkage-matrix+voice-server": {
        "linkage.compromised": ["registration", "voice_server"]},
    # the auditor's view of both stores, joined to names at registration
    "linkage-matrix+auditor": {"linkage.compromised": ["registration", "auditor"]},
    # the two components that link a name to a ballot by themselves
    "linkage-matrix+polling-caller-id": {
        "linkage.compromised": ["polling_place_machine", "phone_tap_caller_id"]},
}


CHILDREN = 2


def compute_digests(part: int = 0, parts: int = 1) -> dict[str, dict[str, str]]:
    """"<scenario>[+<label>]@<seed>" -> {"report_sha256", "trace_digest"},
    for every `parts`-th run starting at run `part`.
    """
    import yaml

    from votesim.config import bundled_scenarios, parse_config
    from votesim.engine import run_engine
    from votesim.report import build_report, serialize_report

    paths = bundled_scenarios()
    runs = [(name, {}) for name in sorted(paths)] + sorted(OVERRIDES.items())
    jobs = [(key, changes, seed) for key, changes in runs for seed in SEEDS]
    out = {}
    for key, changes, seed in jobs[part::parts]:
        with open(paths[key.split("+")[0]]) as f:
            tree = yaml.safe_load(f)
        tree["seed"] = seed
        for dotted, value in changes.items():
            *parents, leaf = dotted.split(".")
            functools.reduce(lambda node, k: node.setdefault(k, {}), parents, tree)[leaf] = value
        report = build_report(run_engine(parse_config(tree)))
        text = serialize_report(report)
        out[f"{key}@{seed}"] = {
            "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "trace_digest": report["trace_digest"],
        }
    return out


def _child_hash_seed(child: int) -> str:
    mine = os.environ.get("PYTHONHASHSEED", "")
    base = int(mine) if mine.isdigit() else 12344  # else this process hashes at random
    return str((base + 1 + child) % 4294967296)


def test_bundled_scenarios_match_goldens():
    import votesim

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(votesim.__file__)))
    procs = []
    for child in range(CHILDREN):
        env = dict(os.environ, PYTHONHASHSEED=_child_hash_seed(child))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        procs.append(subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), f"--part={child}/{CHILDREN}"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    try:
        outputs = [proc.communicate(timeout=900) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # a no-op on a child that has exited
    got = {}
    for proc, (stdout, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stderr
        got.update(json.loads(stdout))
    got = {key: got[key] for key in sorted(got)}
    with open(GOLDEN_PATH) as f:
        want = json.load(f)
    assert list(got) == sorted(want)
    mismatched = [key for key in sorted(want) if got[key] != want[key]]
    assert not mismatched, f"digests changed for {mismatched}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as f:
            json.dump(compute_digests(), f, indent=2, sort_keys=True)
            f.write("\n")
    else:
        part, parts = 0, 1
        if sys.argv[1:]:  # --part=<i>/<n>
            part, parts = map(int, sys.argv[1].removeprefix("--part=").split("/"))
        print(json.dumps(compute_digests(part, parts)))
