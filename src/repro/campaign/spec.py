"""Declarative experiment-campaign specifications.

The paper's evaluation is a *matrix* of experiments — the same gadget
compiled for four platforms (§7.2), the same NREN model at several
scales (§3.2), what-if incident sweeps — and a campaign spec captures
one such matrix declaratively.  Its axes::

    topologies × platforms × rule_sets × fault_schedules
               × traffic_profiles × design_deltas × overrides

expand, in deterministic order, into a list of :class:`TrialSpec`
values.  Every trial carries a stable content hash
(:attr:`TrialSpec.spec_hash`) over its canonical form, which is the
resume key: a re-run of an interrupted or extended campaign executes
only the trials whose hash is not yet in the result store's index.

Specs are plain JSON (or dicts)::

    {
      "name": "bad_gadget_platforms",
      "topologies": ["bad_gadget"],
      "platforms": ["netkit", "dynagen", "junosphere", "cbgp"],
      "max_rounds": 40,
      "trials": [
        {"topology": "bad_gadget", "platform": "netkit",
         "overrides": {"inject_fault": "deploy"}}
      ]
    }

Fault-schedule axis entries are ``null``, a path to a ``.fault`` file
(relative to the spec file), or ``{"inline": "at 2 link_down r1 r2"}``;
either way the schedule is canonicalised to its DSL text at load time
so the trial hash moves when the schedule *content* changes.  The
``traffic_profiles`` axis works the same way — ``null``, a path to a
profile ``.json``, or ``{"inline": {...}}`` — and is canonicalised to
the profile's sorted JSON text, so trials that offer no traffic keep
the hashes they had before the axis existed.  The ``design_deltas``
axis (rolling-change scenarios) follows the same convention: ``null``,
a path to a design-edit ``.json``, or an inline edit list, canonicalised
to sorted edit JSON; a trial with a delta boots the base design, then
live-applies the diff to the edited design instead of rebooting (and,
under ``verify_live``, checks the result against a fresh boot).  The
optional ``trials``
list appends explicit one-off trials after the axis product — the
idiomatic place for a deliberately fault-injected trial.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.design import DEFAULT_RULES
from repro.exceptions import CampaignError
from repro.nidb.database import stable_hash
from repro.resilience import FaultSchedule

#: Override keys a trial may carry; anything else is a spec typo.
KNOWN_OVERRIDES = (
    "max_rounds",     # convergence round deadline (int)
    "deploy",         # boot the lab after rendering (bool, default true)
    "reachability",   # measure the loopback reachability matrix (bool)
    "inject_fault",   # force this trial to fail at a stage (chaos hook)
    "lab_name",       # deployment lab name (str)
    "boot_jobs",      # per-trial boot fan-out width (int, default 1)
    "traffic_seed",   # seed for the trial's traffic engine (int, default 0)
    "inject_hang",    # force this trial to hang at a stage (chaos hook)
    "hang_seconds",   # how long an injected hang sleeps (float, default 30)
    "trial_deadline_s",  # per-trial wall-clock budget override (float)
    "verify_live",    # check live-applied delta ≡ fresh boot (bool, default true)
)

#: Top-level keys a spec may carry; anything else is a spec typo.
KNOWN_SPEC_KEYS = (
    "name",
    "description",       # free text, not read
    "directory",
    "topologies",
    "platforms",
    "rule_sets",
    "fault_schedules",
    "traffic_profiles",
    "design_deltas",
    "overrides",
    "trials",
    "max_rounds",        # the trial defaults below
    "deploy",
    "reachability",
    "boot_jobs",
    "trial_deadline_s",  # supervision settings, outside the trial hashes
    "phase_deadlines",
    "stall_after_s",
)

#: Top-level keys that seed every trial's overrides.
_TRIAL_DEFAULT_KEYS = ("max_rounds", "deploy", "reachability", "boot_jobs")

#: Override values that are checked, not coerced: key -> JSON type.
_TYPED_VALUES = {
    "max_rounds": int,
    "boot_jobs": int,
    "deploy": bool,
    "reachability": bool,
    "verify_live": bool,
}

#: Stages ``inject_fault`` may name.
INJECTABLE_STAGES = ("build", "deploy", "measure")


@dataclass(frozen=True)
class TrialSpec:
    """One fully resolved cell of the campaign matrix."""

    topology: str            # builtin name or path as written in the spec
    platform: str
    rules: tuple
    schedule: Optional[str]  # canonical fault-schedule DSL text
    overrides: tuple         # sorted (key, value) pairs
    sequence: int = 0        # position in the expansion (sharding order)
    traffic: Optional[str] = None  # canonical traffic-profile JSON text
    delta: Optional[str] = None    # canonical design-edits JSON text

    def canonical(self) -> dict:
        """The hash input: everything that defines the trial's outcome.

        ``traffic`` and ``delta`` join the hash only when set, so
        pre-existing campaigns (which had neither axis) keep their
        resume keys.
        """
        data = {
            "topology": self.topology,
            "platform": self.platform,
            "rules": list(self.rules),
            "schedule": self.schedule,
            "overrides": dict(self.overrides),
        }
        if self.traffic is not None:
            data["traffic"] = self.traffic
        if self.delta is not None:
            data["delta"] = self.delta
        return data

    @property
    def spec_hash(self) -> str:
        return stable_hash(self.canonical())

    @property
    def trial_id(self) -> str:
        """Readable and unique: ``<topology>@<platform>-<hash8>``."""
        stem = os.path.splitext(os.path.basename(self.topology))[0]
        return "%s@%s-%s" % (stem, self.platform, self.spec_hash[:8])

    def override(self, key: str, default: Any = None) -> Any:
        return dict(self.overrides).get(key, default)

    def to_dict(self) -> dict:
        data = self.canonical()
        data["trial_id"] = self.trial_id
        data["spec_hash"] = self.spec_hash
        data["sequence"] = self.sequence
        return data

    def __str__(self) -> str:
        return self.trial_id


@dataclass
class CampaignSpec:
    """A named experiment matrix, expanded into its trial list."""

    name: str
    trials: list[TrialSpec] = field(default_factory=list)
    directory: Optional[str] = None  # result-store directory, if the spec names one
    base_dir: str = "."              # resolves relative topology/schedule paths
    raw: dict = field(default_factory=dict)
    # Supervision settings ride on the spec, NOT in the trial hashes:
    # tightening a deadline must never invalidate completed results.
    trial_deadline_s: Optional[float] = None   # per-trial wall-clock budget
    phase_deadlines: dict = field(default_factory=dict)  # phase -> seconds
    stall_after_s: Optional[float] = None      # watchdog stall window

    # -- construction --------------------------------------------------------
    @classmethod
    def load(cls, path: str | os.PathLike) -> "CampaignSpec":
        """Load a spec from a JSON file; relative paths resolve beside it."""
        path = str(path)
        try:
            with open(path) as handle:
                data = json.load(handle)
        except ValueError as exc:
            raise CampaignError("campaign spec %s is not valid JSON: %s" % (path, exc))
        return cls.from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | None = None) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise CampaignError("campaign spec must be a JSON object")
        unknown = sorted(set(data) - set(KNOWN_SPEC_KEYS))
        if unknown:
            raise CampaignError(
                "unknown campaign spec key(s) %s (choose from %s)"
                % (", ".join(map(repr, unknown)), ", ".join(KNOWN_SPEC_KEYS))
            )
        base_dir = base_dir or os.getcwd()
        name = data.get("name")
        if not name:
            raise CampaignError("campaign spec needs a 'name'")
        topologies = _string_list(data, "topologies")
        platforms = _string_list(data, "platforms")
        rule_sets = data.get("rule_sets") or [list(DEFAULT_RULES)]
        schedules = data.get("fault_schedules") or [None]
        traffic_axis = data.get("traffic_profiles") or [None]
        delta_axis = data.get("design_deltas") or [None]
        override_axis = data.get("overrides") or [{}]
        defaults = _trial_defaults(data)

        spec = cls(
            name=str(name),
            directory=data.get("directory"),
            base_dir=base_dir,
            raw=data,
            trial_deadline_s=_positive_or_none(data, "trial_deadline_s"),
            phase_deadlines=_phase_deadlines(data),
            stall_after_s=_positive_or_none(data, "stall_after_s"),
        )
        cells = [
            (topology, platform, rules, schedule, traffic, delta, overrides)
            for topology in topologies
            for platform in platforms
            for rules in rule_sets
            for schedule in schedules
            for traffic in traffic_axis
            for delta in delta_axis
            for overrides in override_axis
        ]
        for topology, platform, rules, schedule, traffic, delta, overrides in cells:
            spec.trials.append(
                _make_trial(
                    topology, platform, rules, schedule,
                    {**defaults, **_check_overrides(overrides)},
                    base_dir, sequence=len(spec.trials),
                    traffic=traffic, delta=delta,
                )
            )
        for extra in data.get("trials") or []:
            if not isinstance(extra, dict) or "topology" not in extra or "platform" not in extra:
                raise CampaignError(
                    "explicit trial entries need 'topology' and 'platform': %r" % (extra,)
                )
            spec.trials.append(
                _make_trial(
                    extra["topology"],
                    extra["platform"],
                    extra.get("rules") or (rule_sets[0] if rule_sets else DEFAULT_RULES),
                    extra.get("fault_schedule"),
                    {**defaults, **_check_overrides(extra.get("overrides") or {})},
                    base_dir, sequence=len(spec.trials),
                    traffic=extra.get("traffic_profile"),
                    delta=extra.get("design_delta"),
                )
            )
        if not spec.trials:
            raise CampaignError("campaign %r expands to zero trials" % spec.name)
        _check_unique(spec.trials)
        return spec

    @classmethod
    def from_expanded(cls, data: dict) -> "CampaignSpec":
        """Rebuild a spec from its stored expanded trial list.

        The input is what :meth:`ResultStore.write_spec` persisted: the
        campaign name plus each trial's canonical dict.  Canonical
        forms are content-complete (schedules and traffic profiles are
        inlined text), so the rebuilt trials hash identically to the
        originals — ``repro campaign status <results-dir>`` sees the
        same pending set the original run would.
        """
        if not isinstance(data, dict) or not data.get("name"):
            raise CampaignError("expanded campaign spec needs a 'name'")
        entries = data.get("trials")
        if not entries or not isinstance(entries, list):
            raise CampaignError("expanded campaign spec needs a 'trials' list")
        spec = cls(name=str(data["name"]), raw=data)
        for position, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise CampaignError("bad expanded trial entry %r" % (entry,))
            overrides = entry.get("overrides") or {}
            spec.trials.append(
                TrialSpec(
                    topology=str(entry.get("topology", "")),
                    platform=str(entry.get("platform", "")),
                    rules=tuple(str(rule) for rule in entry.get("rules") or ()),
                    schedule=entry.get("schedule"),
                    overrides=tuple(sorted(overrides.items())),
                    sequence=int(entry.get("sequence", position)),
                    traffic=entry.get("traffic"),
                    delta=entry.get("delta"),
                )
            )
        return spec

    # -- selection -----------------------------------------------------------
    def shard(self, index: int, count: int) -> list[TrialSpec]:
        """The deterministic slice of trials shard ``index`` of ``count`` owns."""
        if count < 1 or not 0 <= index < count:
            raise CampaignError(
                "bad shard %d/%d: index must be in [0, count)" % (index, count)
            )
        return [trial for trial in self.trials if trial.sequence % count == index]

    def trial_by_hash(self, spec_hash: str) -> Optional[TrialSpec]:
        for trial in self.trials:
            if trial.spec_hash == spec_hash:
                return trial
        return None

    def resolve_path(self, token: str) -> str:
        """A spec-relative path made absolute (builtin names pass through)."""
        if os.path.isabs(token):
            return token
        return os.path.join(self.base_dir, token)

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def __repr__(self) -> str:
        return "CampaignSpec(%r, %d trials)" % (self.name, len(self.trials))


def _string_list(data: dict, key: str) -> list[str]:
    values = data.get(key)
    if not values or not isinstance(values, list):
        raise CampaignError("campaign spec needs a non-empty %r list" % key)
    return [str(value) for value in values]


def _trial_defaults(data: dict) -> dict:
    """Top-level spec keys that seed every trial's overrides."""
    return _check_values(
        {key: data[key] for key in _TRIAL_DEFAULT_KEYS if key in data}
    )


def _check_values(overrides: dict) -> dict:
    """Reject typed values of the wrong JSON type instead of coercing:
    ``bool("false")`` is true and ``"abc"`` only fails at deploy."""
    for key, value in overrides.items():
        expected = _TYPED_VALUES.get(key)
        # exact type: bool is an int subclass, neither stands in for the other
        if expected is not None and type(value) is not expected:
            raise CampaignError(
                "%r must be a JSON %s, got %r"
                % (key, "boolean" if expected is bool else "integer", value)
            )
    return overrides


def _positive_or_none(data: dict, key: str) -> Optional[float]:
    value = data.get(key)
    if value is None:
        return None
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise CampaignError("%r must be a number, got %r" % (key, data.get(key)))
    if value <= 0:
        raise CampaignError("%r must be positive, got %r" % (key, value))
    return value


def _phase_deadlines(data: dict) -> dict:
    entries = data.get("phase_deadlines")
    if entries is None:
        return {}
    if not isinstance(entries, dict):
        raise CampaignError(
            "'phase_deadlines' must map phase names to seconds, got %r" % (entries,)
        )
    deadlines = {}
    for phase, seconds in entries.items():
        deadlines[str(phase)] = _positive_or_none(
            {"phase_deadlines.%s" % phase: seconds}, "phase_deadlines.%s" % phase
        )
    return deadlines


def _check_overrides(overrides: dict) -> dict:
    if not isinstance(overrides, dict):
        raise CampaignError("overrides entries must be objects, got %r" % (overrides,))
    for key in overrides:
        if key not in KNOWN_OVERRIDES:
            raise CampaignError(
                "unknown override %r (choose from %s)"
                % (key, ", ".join(KNOWN_OVERRIDES))
            )
    for hook in ("inject_fault", "inject_hang"):
        stage = overrides.get(hook)
        if stage is not None and stage not in INJECTABLE_STAGES:
            raise CampaignError(
                "%s must name a stage (%s), got %r"
                % (hook, ", ".join(INJECTABLE_STAGES), stage)
            )
    return _check_values(overrides)


def _make_trial(
    topology, platform, rules, schedule, overrides: dict,
    base_dir: str, sequence: int, traffic=None, delta=None,
) -> TrialSpec:
    return TrialSpec(
        topology=str(topology),
        platform=str(platform),
        rules=tuple(str(rule) for rule in rules),
        schedule=_canonical_schedule(schedule, base_dir),
        overrides=tuple(sorted(overrides.items())),
        sequence=sequence,
        traffic=_canonical_traffic_profile(traffic, base_dir),
        delta=_canonical_delta(delta, base_dir),
    )


def _canonical_schedule(entry, base_dir: str) -> Optional[str]:
    """Normalise a schedule axis entry to validated DSL text (or None)."""
    if entry is None:
        return None
    if isinstance(entry, dict):
        if "inline" in entry:
            text = str(entry["inline"])
        elif "file" in entry:
            text = _read_schedule(str(entry["file"]), base_dir)
        else:
            raise CampaignError(
                "fault schedule entries need 'inline' or 'file': %r" % (entry,)
            )
    elif isinstance(entry, str):
        text = _read_schedule(entry, base_dir)
    else:
        raise CampaignError("bad fault schedule entry %r" % (entry,))
    schedule = FaultSchedule.parse(text)  # validates the DSL early
    return "\n".join(str(event) for event in schedule)


def _canonical_traffic_profile(entry, base_dir: str) -> Optional[str]:
    """Normalise a traffic axis entry to the profile's sorted JSON text.

    Entries mirror the fault-schedule axis: ``None``, a path to a
    profile ``.json`` (relative to the spec file), or an inline object —
    either ``{"inline": {...profile...}}`` or the profile dict itself.
    Canonicalising to content (not the path) means the trial hash moves
    exactly when the offered workload changes.
    """
    if entry is None:
        return None
    from repro.exceptions import TrafficError
    from repro.traffic import TrafficProfile

    try:
        if isinstance(entry, dict):
            data = entry.get("inline") if set(entry) == {"inline"} else entry
            profile = TrafficProfile.from_dict(data)
        elif isinstance(entry, str):
            path = entry
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            profile = TrafficProfile.load(path)
        else:
            raise CampaignError("bad traffic profile entry %r" % (entry,))
    except (TrafficError, OSError) as exc:
        raise CampaignError("cannot load traffic profile %r: %s" % (entry, exc))
    return profile.to_json()


def _canonical_delta(entry, base_dir: str) -> Optional[str]:
    """Normalise a design-delta axis entry to canonical edits JSON.

    Entries mirror the traffic axis: ``None``, a path to a design-edit
    ``.json`` (relative to the spec file), an inline edit list, or
    ``{"inline": [...]}``.  Canonicalising to sorted edit JSON means
    the trial hash moves exactly when the rolling change itself does.
    """
    if entry is None:
        return None
    from repro.exceptions import LiveUpdateError
    from repro.liveupdate import canonical_edits, parse_edits

    try:
        if isinstance(entry, dict):
            if set(entry) != {"inline"}:
                raise CampaignError(
                    "design delta objects need exactly 'inline': %r" % (entry,)
                )
            edits = parse_edits(entry["inline"])
        elif isinstance(entry, list):
            edits = parse_edits(entry)
        elif isinstance(entry, str):
            path = entry
            if not os.path.isabs(path) and not path.lstrip().startswith("["):
                path = os.path.join(base_dir, path)
            edits = parse_edits(path)
        else:
            raise CampaignError("bad design delta entry %r" % (entry,))
    except (LiveUpdateError, OSError) as exc:
        raise CampaignError("cannot load design delta %r: %s" % (entry, exc))
    return canonical_edits(edits)


def _read_schedule(path: str, base_dir: str) -> str:
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise CampaignError("cannot read fault schedule %s: %s" % (path, exc))


def _check_unique(trials: Iterable[TrialSpec]) -> None:
    seen: dict[str, TrialSpec] = {}
    for trial in trials:
        clash = seen.get(trial.spec_hash)
        if clash is not None:
            raise CampaignError(
                "campaign contains duplicate trials: %s and %s expand to the "
                "same specification" % (clash.trial_id, trial.trial_id)
            )
        seen[trial.spec_hash] = trial
