"""Scenario configuration: a versioned YAML key tree.

The full grammar is documented in the README. Validation reports the key
path of the first offending entry; YAML syntax errors keep the parser's
line/column. `seed` is mandatory; every probability must sit in [0, 1].
"""

from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Any, Optional

import yaml

from .minitls import CipherSuite


class ConfigInvalid(Exception):
    pass


SCHEMA_VERSION = 1

_SUITE_NAMES = {s.value for s in CipherSuite}
_PREDICTIONS = {"card", "perfect"}
_AUDIT_MODES = {"honest", "blind_eye"}
_COMPONENTS = {
    "registration", "verification_server", "voice_server", "auditor",
    "polling_place_machine", "phone_tap_caller_id",
}


@dataclass
class ManifestConfig:
    groups: int = 24
    candidates: int = 394
    assembly: int = 24
    min_below_line_prefs: int = 1
    # optional per-group card overrides:
    #   cards: {g01: {assembly: [a01], mode: atl, council: [g01, g03]}}
    cards: Optional[dict[str, dict]] = None


@dataclass
class BehaviorConfig:
    card_rate: float = 0.40
    p_verify_ivr: float = 0.2
    p_check_receipt_only: float = 0.3
    p_false_complaint: float = 0.0
    p_leave_without_receipt: float = 0.0
    phone_fraction: float = 0.0
    polling_fraction: float = 0.0
    caller_id_fraction: float = 0.0
    p_pin_suspicion: float = 0.0
    verify_delay_min: int = 600
    verify_delay_max: int = 3600
    leaning_weights: Optional[dict[str, float]] = None
    leaning_counts: Optional[dict[str, int]] = None


@dataclass
class TimelineConfig:
    polls_open: int = 0
    polls_close: int = 43200
    receipt_service_end: int = 86400


@dataclass
class CryptoConfig:
    envelope_bits: int = 64
    signature_forgeable_by_server: bool = True


@dataclass
class TlsConfig:
    enabled: bool = True
    export_bits: int = 64
    client_patch_rate: float = 1.0
    third_party_suites: tuple[str, ...] = ("RSA", "RSA_EXPORT", "DHE", "DHE_EXPORT")
    rotation_period: int = 3600
    oracle_connection_lifetime: int = 64800


@dataclass
class WindowedAttack:
    enabled: bool = False
    window_start: Optional[int] = None
    window_end: Optional[int] = None
    control_rate: float = 1.0


@dataclass
class AttacksConfig:
    freak: WindowedAttack = field(default_factory=WindowedAttack)
    logjam: WindowedAttack = field(default_factory=WindowedAttack)
    vote_rewrite_enabled: bool = False
    last_minute_enabled: bool = False
    last_minute_safety_window: int = 600
    receipt_delay_enabled: bool = False
    fake_ivr_enabled: bool = False
    fake_ivr_dial_genuine_rate: float = 0.0
    clash_enabled: bool = False
    clash_prediction: str = "card"
    server_rewrite_enabled: bool = False
    server_rewrite_count: int = 0
    granted_compromise_rate: float = 0.0
    gateway_stripped: bool = False
    target_group: Optional[str] = None


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    voters: int
    manifest: ManifestConfig = field(default_factory=ManifestConfig)
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    timeline: TimelineConfig = field(default_factory=TimelineConfig)
    crypto: CryptoConfig = field(default_factory=CryptoConfig)
    tls: TlsConfig = field(default_factory=TlsConfig)
    attacks: AttacksConfig = field(default_factory=AttacksConfig)
    audit_mode: str = "honest"
    linkage_compromised: tuple[str, ...] = ()
    linkage_phone_tap: bool = True


def _fail(path: str, why: str):
    raise ConfigInvalid(f"{path}: {why}")


def _get(tree: dict, path: str, key: str, default=None, required=False):
    if key in tree:
        return tree[key]
    if required:
        _fail(f"{path}.{key}" if path else key, "required key missing")
    return default


def _check_prob(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected probability, got {type(value).__name__}")
    if not 0.0 <= float(value) <= 1.0:
        _fail(path, f"probability {value} outside [0, 1]")
    return float(value)


def _check_int(value, path, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    return value


def _check_bool(value, path) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true or false, got {type(value).__name__}")
    return value


def _check_window_bound(value, path) -> Optional[int]:
    return None if value is None else _check_int(value, path)


def _keys(cls) -> frozenset:
    return frozenset(f.name for f in fields(cls))


# every key parse_config reads; any other key is a typo that would
# silently run a different election
_TOP_KEYS = frozenset({"schema_version", "seed", "voters", "name", "manifest",
                       "behavior", "timeline", "crypto", "tls", "attacks",
                       "audit", "linkage"})
_CARD_KEYS = frozenset({"mode", "assembly", "council"})
_ATTACK_SECTIONS = {
    "freak": _keys(WindowedAttack),
    "logjam": _keys(WindowedAttack),
    "vote_rewrite": frozenset({"enabled"}),
    "last_minute": frozenset({"enabled", "safety_window"}),
    "receipt_delay": frozenset({"enabled"}),
    "fake_ivr": frozenset({"enabled", "dial_genuine_rate"}),
    "clash": frozenset({"enabled", "prediction"}),
    "server_rewrite": frozenset({"enabled", "count"}),
}
_ATTACKS_KEYS = frozenset(_ATTACK_SECTIONS) | {"granted_compromise_rate",
                                               "gateway_stripped", "target_group"}


def _check_keys(tree: dict, path: str, allowed: frozenset) -> None:
    for key in tree:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else str(key),
                  f"unknown key (expected one of {', '.join(sorted(allowed))})")


def _section(tree: dict, path: str, allowed: frozenset) -> dict:
    """The mapping at `path`'s last key in `tree` ({} when absent or
    empty), with its own keys checked against `allowed`.
    """
    sub = tree.get(path.rpartition(".")[2]) or {}
    if not isinstance(sub, dict):
        _fail(path, "expected a mapping")
    _check_keys(sub, path, allowed)
    return sub


def parse_config(tree: Any, name_hint: str = "scenario") -> ScenarioConfig:
    if not isinstance(tree, dict):
        raise ConfigInvalid("top level: expected a mapping")
    _check_keys(tree, "", _TOP_KEYS)
    version = _get(tree, "", "schema_version", required=True)
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported version {version} (want {SCHEMA_VERSION})")
    seed = _check_int(_get(tree, "", "seed", required=True), "seed")
    voters = _check_int(_get(tree, "", "voters", required=True), "voters", minimum=1)
    name = _get(tree, "", "name", default=name_hint)

    m = _section(tree, "manifest", _keys(ManifestConfig))
    cards = m.get("cards")
    if cards is not None:
        if not isinstance(cards, dict):
            _fail("manifest.cards", "expected a mapping of group -> card")
        for grp, card in cards.items():
            if not isinstance(card, dict):
                _fail(f"manifest.cards.{grp}", "expected a mapping")
            _check_keys(card, f"manifest.cards.{grp}", _CARD_KEYS)
            mode = card.get("mode", "atl")
            if mode not in ("atl", "btl"):
                _fail(f"manifest.cards.{grp}.mode", "must be atl or btl")
            for key in ("assembly", "council"):
                if not isinstance(card.get(key), list) or not card[key]:
                    _fail(f"manifest.cards.{grp}.{key}", "expected a non-empty list")
    manifest = ManifestConfig(
        groups=_check_int(m.get("groups", 24), "manifest.groups", 1),
        candidates=_check_int(m.get("candidates", 394), "manifest.candidates", 1),
        assembly=_check_int(m.get("assembly", 24), "manifest.assembly", 1),
        min_below_line_prefs=_check_int(m.get("min_below_line_prefs", 1),
                                        "manifest.min_below_line_prefs", 1),
        cards=cards,
    )

    b = _section(tree, "behavior", _keys(BehaviorConfig))
    behavior = BehaviorConfig(
        card_rate=_check_prob(b.get("card_rate", 0.40), "behavior.card_rate"),
        p_verify_ivr=_check_prob(b.get("p_verify_ivr", 0.2), "behavior.p_verify_ivr"),
        p_check_receipt_only=_check_prob(b.get("p_check_receipt_only", 0.3),
                                         "behavior.p_check_receipt_only"),
        p_false_complaint=_check_prob(b.get("p_false_complaint", 0.0),
                                      "behavior.p_false_complaint"),
        p_leave_without_receipt=_check_prob(b.get("p_leave_without_receipt", 0.0),
                                            "behavior.p_leave_without_receipt"),
        phone_fraction=_check_prob(b.get("phone_fraction", 0.0),
                                   "behavior.phone_fraction"),
        polling_fraction=_check_prob(b.get("polling_fraction", 0.0),
                                     "behavior.polling_fraction"),
        caller_id_fraction=_check_prob(b.get("caller_id_fraction", 0.0),
                                       "behavior.caller_id_fraction"),
        p_pin_suspicion=_check_prob(b.get("p_pin_suspicion", 0.0),
                                    "behavior.p_pin_suspicion"),
        verify_delay_min=_check_int(b.get("verify_delay_min", 600),
                                    "behavior.verify_delay_min", 0),
        verify_delay_max=_check_int(b.get("verify_delay_max", 3600),
                                    "behavior.verify_delay_max", 0),
        leaning_weights=b.get("leaning_weights"),
        leaning_counts=b.get("leaning_counts"),
    )
    if behavior.p_verify_ivr + behavior.p_check_receipt_only > 1.0:
        _fail("behavior.p_check_receipt_only",
              "p_verify_ivr + p_check_receipt_only must be <= 1")
    if behavior.verify_delay_min > behavior.verify_delay_max:
        _fail("behavior.verify_delay_min", "must be <= verify_delay_max")
    if behavior.leaning_weights is not None:
        for k, v in behavior.leaning_weights.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
                _fail(f"behavior.leaning_weights.{k}", "weights must be nonnegative numbers")
        if behavior.leaning_weights and not any(behavior.leaning_weights.values()):
            _fail("behavior.leaning_weights", "at least one weight must be positive")
    if behavior.leaning_counts is not None:
        for k, v in behavior.leaning_counts.items():
            _check_int(v, f"behavior.leaning_counts.{k}", 0)

    t = _section(tree, "timeline", _keys(TimelineConfig))
    timeline = TimelineConfig(
        polls_open=_check_int(t.get("polls_open", 0), "timeline.polls_open", 0),
        polls_close=_check_int(t.get("polls_close", 43200), "timeline.polls_close", 1),
        receipt_service_end=_check_int(t.get("receipt_service_end", 86400),
                                       "timeline.receipt_service_end", 1),
    )
    if not timeline.polls_open < timeline.polls_close < timeline.receipt_service_end:
        _fail("timeline", "must order polls_open < polls_close < receipt_service_end")

    c = _section(tree, "crypto", _keys(CryptoConfig))
    crypto = CryptoConfig(
        envelope_bits=_check_int(c.get("envelope_bits", 64), "crypto.envelope_bits", 32),
        signature_forgeable_by_server=_check_bool(
            c.get("signature_forgeable_by_server", True),
            "crypto.signature_forgeable_by_server"),
    )
    if crypto.envelope_bits not in (32, 64, 128):
        _fail("crypto.envelope_bits", "must be one of 32, 64, 128")

    tl = _section(tree, "tls", _keys(TlsConfig))
    suites = tuple(tl.get("third_party_suites",
                          ["RSA", "RSA_EXPORT", "DHE", "DHE_EXPORT"]))
    for s in suites:
        if s not in _SUITE_NAMES:
            _fail("tls.third_party_suites", f"unknown suite {s!r}")
    tls = TlsConfig(
        enabled=_check_bool(tl.get("enabled", True), "tls.enabled"),
        export_bits=_check_int(tl.get("export_bits", 64), "tls.export_bits", 32),
        client_patch_rate=_check_prob(tl.get("client_patch_rate", 1.0),
                                      "tls.client_patch_rate"),
        third_party_suites=suites,
        rotation_period=_check_int(tl.get("rotation_period", 3600),
                                   "tls.rotation_period", 1),
        oracle_connection_lifetime=_check_int(
            tl.get("oracle_connection_lifetime", 64800),
            "tls.oracle_connection_lifetime", 1),
    )

    a = _section(tree, "attacks", _ATTACKS_KEYS)
    sections = {key: _section(a, f"attacks.{key}", allowed)
                for key, allowed in _ATTACK_SECTIONS.items()}

    def enabled(sub: dict, key: str) -> bool:
        return _check_bool(sub.get("enabled", False), f"attacks.{key}.enabled")

    def windowed(key: str) -> WindowedAttack:
        sub = sections[key]
        return WindowedAttack(
            enabled=enabled(sub, key),
            window_start=_check_window_bound(sub.get("window_start"),
                                             f"attacks.{key}.window_start"),
            window_end=_check_window_bound(sub.get("window_end"),
                                           f"attacks.{key}.window_end"),
            control_rate=_check_prob(sub.get("control_rate", 1.0),
                                     f"attacks.{key}.control_rate"),
        )

    rewrite = sections["vote_rewrite"]
    last_minute = sections["last_minute"]
    receipt_delay = sections["receipt_delay"]
    fake_ivr = sections["fake_ivr"]
    clash = sections["clash"]
    server_rewrite = sections["server_rewrite"]
    prediction = clash.get("prediction", "card")
    if prediction not in _PREDICTIONS:
        _fail("attacks.clash.prediction", f"must be one of {sorted(_PREDICTIONS)}")
    attacks = AttacksConfig(
        freak=windowed("freak"),
        logjam=windowed("logjam"),
        vote_rewrite_enabled=enabled(rewrite, "vote_rewrite"),
        last_minute_enabled=enabled(last_minute, "last_minute"),
        last_minute_safety_window=_check_int(last_minute.get("safety_window", 600),
                                             "attacks.last_minute.safety_window", 0),
        receipt_delay_enabled=enabled(receipt_delay, "receipt_delay"),
        fake_ivr_enabled=enabled(fake_ivr, "fake_ivr"),
        fake_ivr_dial_genuine_rate=_check_prob(
            fake_ivr.get("dial_genuine_rate", 0.0),
            "attacks.fake_ivr.dial_genuine_rate"),
        clash_enabled=enabled(clash, "clash"),
        clash_prediction=prediction,
        server_rewrite_enabled=enabled(server_rewrite, "server_rewrite"),
        server_rewrite_count=_check_int(server_rewrite.get("count", 0),
                                        "attacks.server_rewrite.count", 0),
        granted_compromise_rate=_check_prob(a.get("granted_compromise_rate", 0.0),
                                            "attacks.granted_compromise_rate"),
        gateway_stripped=_check_bool(a.get("gateway_stripped", False),
                                     "attacks.gateway_stripped"),
        target_group=a.get("target_group"),
    )

    if not tls.enabled and (attacks.freak.enabled or attacks.logjam.enabled):
        _fail("attacks", "downgrade attacks need tls.enabled: true")
    if attacks.freak.enabled and "RSA_EXPORT" not in suites:
        _fail("attacks.freak", "needs RSA_EXPORT in tls.third_party_suites")
    if attacks.logjam.enabled and "DHE_EXPORT" not in suites:
        _fail("attacks.logjam", "needs DHE_EXPORT in tls.third_party_suites")

    audit = _section(tree, "audit", frozenset({"mode"}))
    audit_mode = audit.get("mode", "honest")
    if audit_mode not in _AUDIT_MODES:
        _fail("audit.mode", f"must be one of {sorted(_AUDIT_MODES)}")

    lk = _section(tree, "linkage", frozenset({"compromised", "phone_tap"}))
    compromised = tuple(lk.get("compromised", []) or [])
    for comp in compromised:
        if comp not in _COMPONENTS:
            _fail("linkage.compromised", f"unknown component {comp!r}")

    return ScenarioConfig(
        name=str(name),
        seed=seed,
        voters=voters,
        manifest=manifest,
        behavior=behavior,
        timeline=timeline,
        crypto=crypto,
        tls=tls,
        attacks=attacks,
        audit_mode=audit_mode,
        linkage_compromised=compromised,
        linkage_phone_tap=_check_bool(lk.get("phone_tap", True), "linkage.phone_tap"),
    )


def load_config(path: str) -> ScenarioConfig:
    with open(path) as f:
        text = f.read()
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc
    name_hint = path.rsplit("/", 1)[-1].removesuffix(".yaml")
    try:
        return parse_config(tree, name_hint=name_hint)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def bundled_scenarios() -> dict[str, str]:
    """Name -> importable path of every scenario shipped with the package."""
    base = resources.files("votesim").joinpath("data/scenarios")
    out = {}
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            out[entry.name.removesuffix(".yaml")] = str(entry)
    return out
