"""Scenario configuration: a versioned YAML key tree.

The dataclasses below are the grammar, documented in the README: each
section is a dataclass, each key one of its fields, each default that
field's default. `parse_config` walks them, so a key that is not a field
is rejected, and every error names the key path of the first offending
entry; YAML syntax errors keep the parser's line/column.

What a field's type admits:

    bool              YAML true or false, never a quoted string
    int               an integer, not a bool; metadata `min`, `max` or
                      `choices`
    float             a probability in [0, 1], returned as float; with
                      metadata `min`, any number >= min
    str               a string; metadata `choices`
    tuple[str, ...]   a list (null is the empty list); `choices` bounds
                      each item, `min` the length
    Optional[T]       null, or a T
    dict[str, T]      a mapping whose values are each a T, checked with
                      the field's metadata
    a dataclass       a mapping (null is the empty mapping)

Checks that span fields, and those that need the built manifest or the
voters' timeline, follow the walk in `parse_config`: a config it returns
is one the engine can run.
"""

from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from importlib import resources
from typing import Any, Optional, Union, get_args, get_origin

import yaml

from . import ballots as bal
from .election import AuditMode, Component
from .minitls import DLOG_INDIVIDUAL_DELAY, CipherSuite


class ConfigInvalid(Exception):
    pass


SCHEMA_VERSION = 1

# simulated seconds: each voter registers REGISTRATION_LEAD and makes the
# background fetch a fetch lead before the cast; Logjam's lead leaves room
# for the per-target descent
REGISTRATION_LEAD = 1800
FETCH_LEAD_PLAIN = 10
FETCH_LEAD_DLOG = DLOG_INDIVIDUAL_DELAY + 30
FACTORING_SIM_SECONDS = 7 * 3600  # simulated cost of factoring one export modulus
U16_MAX = 65535  # the ballot wire format's counts and indexes are u16
# a ballot's encoding, 5 bytes plus 2 per preference, travels in the
# envelope behind a u16 length
MAX_PREFS = (U16_MAX - 5) // 2


def _field(default=MISSING, **meta):
    """A grammar field: `default` (none: the key is required) plus the
    `min`/`max`/`choices` bounds the walker enforces.
    """
    return field(default=default, metadata=meta)


@dataclass
class CardConfig:
    """One group's voting-card override."""
    assembly: tuple[str, ...] = _field(min=1)
    council: tuple[str, ...] = _field(min=1)
    mode: str = _field("atl", choices=("atl", "btl"))


@dataclass
class ManifestConfig:
    # a drawn ballot may rank every group and up to four assembly candidates
    groups: int = _field(24, min=1, max=MAX_PREFS - 4)
    candidates: int = _field(394, min=1, max=U16_MAX)
    assembly: int = _field(24, min=1, max=U16_MAX)
    min_below_line_prefs: int = _field(1, min=1)
    cards: Optional[dict[str, CardConfig]] = None


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
    verify_delay_min: int = _field(600, min=0)
    verify_delay_max: int = _field(3600, min=0)
    leaning_weights: Optional[dict[str, float]] = _field(None, min=0)
    leaning_counts: Optional[dict[str, int]] = _field(None, min=0)


@dataclass
class TimelineConfig:
    polls_open: int = _field(0, min=0)
    polls_close: int = _field(43200, min=1)
    receipt_service_end: int = _field(86400, min=1)


@dataclass
class CryptoConfig:
    envelope_bits: int = _field(64, choices=(32, 64, 128))


@dataclass
class TlsConfig:
    enabled: bool = True
    client_patch_rate: float = 1.0
    third_party_suites: tuple[str, ...] = _field(
        ("RSA", "RSA_EXPORT", "DHE", "DHE_EXPORT"),
        choices=tuple(s.value for s in CipherSuite))
    rotation_period: int = _field(3600, min=1)
    oracle_connection_lifetime: int = _field(64800, min=1)


@dataclass
class Toggle:
    enabled: bool = False


@dataclass
class WindowedAttack(Toggle):
    # null: the polls' own bound; ScenarioConfig resolves it
    window_start: Optional[int] = None
    window_end: Optional[int] = None
    control_rate: float = 1.0


@dataclass
class LastMinuteAttack(Toggle):
    safety_window: int = _field(600, min=0)


@dataclass
class FakeIvrAttack(Toggle):
    dial_genuine_rate: float = 0.0


@dataclass
class ClashAttack(Toggle):
    prediction: str = _field("card", choices=("card", "perfect"))


@dataclass
class ServerRewriteAttack(Toggle):
    count: int = _field(0, min=0)


@dataclass
class AttacksConfig:
    freak: WindowedAttack = field(default_factory=WindowedAttack)
    logjam: WindowedAttack = field(default_factory=WindowedAttack)
    vote_rewrite: Toggle = field(default_factory=Toggle)
    last_minute: LastMinuteAttack = field(default_factory=LastMinuteAttack)
    receipt_delay: Toggle = field(default_factory=Toggle)
    fake_ivr: FakeIvrAttack = field(default_factory=FakeIvrAttack)
    clash: ClashAttack = field(default_factory=ClashAttack)
    server_rewrite: ServerRewriteAttack = field(default_factory=ServerRewriteAttack)
    granted_compromise_rate: float = 0.0
    target_group: Optional[str] = None


@dataclass
class AuditConfig:
    mode: str = _field("honest", choices=tuple(m.value for m in AuditMode))


@dataclass
class LinkageConfig:
    compromised: tuple[str, ...] = _field((), choices=tuple(c.value for c in Component))


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    voters: int = _field(min=1)
    manifest: ManifestConfig = field(default_factory=ManifestConfig)
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    timeline: TimelineConfig = field(default_factory=TimelineConfig)
    crypto: CryptoConfig = field(default_factory=CryptoConfig)
    tls: TlsConfig = field(default_factory=TlsConfig)
    attacks: AttacksConfig = field(default_factory=AttacksConfig)
    audit: AuditConfig = field(default_factory=AuditConfig)
    linkage: LinkageConfig = field(default_factory=LinkageConfig)

    def __post_init__(self):
        # a null attack-window bound is the polls' own
        for w in (self.attacks.freak, self.attacks.logjam):
            if w.window_start is None:
                w.window_start = self.timeline.polls_open
            if w.window_end is None:
                w.window_end = self.timeline.polls_close


def _fail(path: str, why: str):
    raise ConfigInvalid(f"{path}: {why}")


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _build(cls, tree: Any, path: str):
    """An instance of dataclass `cls` from the mapping `tree` found at
    key `path`, each absent key taking its field's default.
    """
    if tree is None:
        tree = {}
    if not isinstance(tree, dict):
        _fail(path, "expected a mapping")
    known = {f.name: f for f in fields(cls)}
    for key in tree:
        if key not in known:
            _fail(_join(path, key),
                  f"unknown key (expected one of {', '.join(sorted(known))})")
    values = {}
    for name, f in known.items():
        if name in tree:
            values[name] = _value(f.type, tree[name], _join(path, name), f.metadata)
        elif f.default is MISSING and f.default_factory is MISSING:
            _fail(_join(path, name), "required key missing")
    return cls(**values)


def _value(tp, value: Any, path: str, meta) -> Any:
    """`value`, found at `path`, checked against the field type `tp` and
    the field's metadata.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[T]
        return None if value is None else _value(args[0], value, path, meta)
    if is_dataclass(tp):
        return _build(tp, value, path)
    if origin is dict:
        if not isinstance(value, dict):
            _fail(path, "expected a mapping")
        return {k: _value(args[1], v, f"{path}.{k}", meta) for k, v in value.items()}
    if origin is tuple:
        items = [] if value is None else value
        if not isinstance(items, list):
            _fail(path, f"expected a list, got {type(value).__name__}")
        if len(items) < meta.get("min", 0):
            _fail(path, "expected a non-empty list")
        return tuple(_scalar(args[0], item, path, meta) for item in items)
    return _scalar(tp, value, path, meta)


def _scalar(tp, value: Any, path: str, meta) -> Any:
    got = type(value).__name__
    if tp is bool or tp is str:
        if not isinstance(value, tp):
            _fail(path, f"expected {'true or false' if tp is bool else 'a string'}, got {got}")
    else:
        if isinstance(value, bool) or not isinstance(value, int if tp is int else (int, float)):
            _fail(path, f"expected {'integer' if tp is int else 'number'}, got {got}")
        if "min" in meta:
            if not value >= meta["min"]:
                _fail(path, f"must be >= {meta['min']}")
        elif tp is float:
            if not 0.0 <= value <= 1.0:
                _fail(path, f"probability {value} outside [0, 1]")
            value = float(value)
        if "max" in meta and not value <= meta["max"]:
            _fail(path, f"must be <= {meta['max']}")
    choices = meta.get("choices")
    if choices is not None and value not in choices:
        _fail(path, f"{value!r} is not one of {', '.join(map(str, choices))}")
    return value


def parse_config(tree: Any, name_hint: str = "scenario") -> ScenarioConfig:
    if not isinstance(tree, dict):
        raise ConfigInvalid("top level: expected a mapping")
    tree = dict(tree)
    if "schema_version" not in tree:
        _fail("schema_version", "required key missing")
    version = tree.pop("schema_version")
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported version {version} (want {SCHEMA_VERSION})")
    tree["name"] = str(tree.get("name", name_hint))
    cfg = _build(ScenarioConfig, tree, "")

    m, b, t, tls = cfg.manifest, cfg.behavior, cfg.timeline, cfg.tls
    if m.candidates < m.groups:
        _fail("manifest.candidates",
              f"{m.candidates} candidates leave some of the {m.groups} groups "
              "without one")
    if tls.enabled and not {"RSA", "DHE"} & set(tls.third_party_suites):
        _fail("tls.third_party_suites",
              "tls.enabled needs RSA or DHE, the suites an honest client offers, "
              "or every honest handshake fails")
    if b.phone_fraction + b.polling_fraction > 1.0:
        # one draw picks the channel: polling gets only what phone leaves
        _fail("behavior.polling_fraction", "phone_fraction + polling_fraction must be <= 1")
    if b.verify_delay_min > b.verify_delay_max:
        _fail("behavior.verify_delay_min", "must be <= verify_delay_max")
    if b.leaning_weights and not any(b.leaning_weights.values()):
        _fail("behavior.leaning_weights", "at least one weight must be positive")
    if not t.polls_open < t.polls_close < t.receipt_service_end:
        _fail("timeline", "must order polls_open < polls_close < receipt_service_end")
    lead, first_fetch, last_fetch = fetch_range(cfg)
    if first_fetch > last_fetch:
        _fail("timeline.polls_close", "leaves no casting window after the registration "
                                      f"and fetch leads (needs > {first_fetch + lead})")

    manifest = build_manifest(m)
    target = cfg.attacks.target_group
    if target is not None and target not in manifest.cards:
        _fail("attacks.target_group", f"{target!r} not in manifest")
    for key in ("leaning_weights", "leaning_counts"):
        for group in getattr(b, key) or {}:
            if group not in manifest.groups:
                _fail(f"behavior.{key}.{group}", "group not in manifest")
    counted = sum((b.leaning_counts or {}).values())
    if counted > cfg.voters:
        _fail("behavior.leaning_counts", f"{counted} exceed the {cfg.voters} voters")

    for key, suite in (("freak", "RSA_EXPORT"), ("logjam", "DHE_EXPORT")):
        w = getattr(cfg.attacks, key)
        if not w.enabled:
            continue
        if not tls.enabled:
            _fail("attacks", "downgrade attacks need tls.enabled: true")
        if suite not in tls.third_party_suites:
            _fail(f"attacks.{key}", f"needs {suite} in tls.third_party_suites")
        window = f"window [{w.window_start}, {w.window_end})"
        if w.window_start >= w.window_end:
            _fail(f"attacks.{key}.window_start", f"{window} is empty")
        if w.window_end <= first_fetch or w.window_start > last_fetch:
            _fail(f"attacks.{key}.window_start",
                  f"{window} misses every background fetch (fetches run in "
                  f"[{first_fetch}, {last_fetch}])")
    # oracles then open at least FACTORING_SIM_SECONDS apart
    # (engine._build_freak_oracles): a few per day, never thousands
    if cfg.attacks.freak.enabled and \
            tls.oracle_connection_lifetime < 2 * FACTORING_SIM_SECONDS:
        _fail("tls.oracle_connection_lifetime",
              f"must be at least {2 * FACTORING_SIM_SECONDS} s: an oracle serves "
              f"at least the {FACTORING_SIM_SECONDS} s its key took to factor")
    return cfg


def fetch_range(cfg: ScenarioConfig) -> tuple[int, int, int]:
    """`(lead, first, last)`: each voter makes the background fetch `lead`
    seconds before a cast drawn from `[first + lead, polls_close)`, so every
    fetch falls in `[first, last]`.
    """
    lead = FETCH_LEAD_DLOG if cfg.attacks.logjam.enabled else FETCH_LEAD_PLAIN
    t = cfg.timeline
    return lead, t.polls_open + REGISTRATION_LEAD + 1, t.polls_close - 1 - lead


def build_manifest(m: ManifestConfig) -> bal.ElectionManifest:
    """`make_manifest`'s election with each card in `m.cards` put in place
    of its group's; a card the manifest cannot take fails at its key path.
    """
    manifest = bal.make_manifest(num_groups=m.groups, num_candidates=m.candidates,
                                 num_assembly=m.assembly,
                                 min_below_line_prefs=m.min_below_line_prefs)
    if not m.cards:
        return manifest
    merged = dict(manifest.cards)
    for grp, card in m.cards.items():
        path = f"manifest.cards.{grp}"
        if grp not in manifest.groups:
            _fail(path, "group not in manifest")
        if len(card.assembly) + len(card.council) > MAX_PREFS:
            _fail(path, f"more than {MAX_PREFS} preferences overflow the ballot envelope")
        mode = (bal.CouncilMode.ABOVE_THE_LINE if card.mode == "atl"
                else bal.CouncilMode.BELOW_THE_LINE)
        merged[grp] = bal.Ballot(assembly_prefs=card.assembly, council_mode=mode,
                                 council_prefs=card.council)
        try:
            bal.validate_ballot(merged[grp], manifest)
        except bal.InvalidBallot as exc:
            raise ConfigInvalid(f"{path}: {exc}") from exc
    return replace(manifest, cards=merged)


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
