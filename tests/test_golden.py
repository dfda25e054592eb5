"""Golden behaviour oracle: every bundled scenario at seeds 42, 1 and 2
must reproduce the sha256 of its serialized report and its trace_digest
exactly as recorded in tests/golden/digests.json.

The digests are recomputed in one child process whose PYTHONHASHSEED
differs from this process's, through the same calls `votesim run` makes
(with `--seed` overriding the config seed). A change that alters RNG draw
order or trace text changes these digests; such a change must say so and
regenerate the file:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import subprocess
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "digests.json")
SEEDS = (42, 1, 2)


def compute_digests() -> dict[str, dict[str, str]]:
    """"<scenario>@<seed>" -> {"report_sha256", "trace_digest"}."""
    from votesim.config import bundled_scenarios, load_config
    from votesim.engine import run_engine
    from votesim.report import build_report, serialize_report

    out = {}
    for name, path in sorted(bundled_scenarios().items()):
        for seed in SEEDS:
            config = load_config(path)
            config.seed = seed
            report = build_report(run_engine(config))
            text = serialize_report(report)
            out[f"{name}@{seed}"] = {
                "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "trace_digest": report["trace_digest"],
            }
    return out


def _child_hash_seed() -> str:
    mine = os.environ.get("PYTHONHASHSEED", "")
    if mine.isdigit():
        return str((int(mine) + 1) % 4294967296)
    return "12345"  # this process hashes with a random seed


def test_bundled_scenarios_match_goldens():
    import votesim

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(votesim.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=_child_hash_seed())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    with open(GOLDEN_PATH) as f:
        want = json.load(f)
    assert sorted(got) == sorted(want)
    mismatched = [key for key in sorted(want) if got[key] != want[key]]
    assert not mismatched, f"digests changed for {mismatched}"


if __name__ == "__main__":
    digests = compute_digests()
    if sys.argv[1:] == ["--write"]:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
    else:
        print(json.dumps(digests))
