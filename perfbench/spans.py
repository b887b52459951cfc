"""The traced run: timing spans around calls into each msbls module.

``Tracer.install`` replaces public functions at the name their caller looks
them up under (``experiment.run_protocol``, ``protocol.as_matrix``,
``bls.ridge_solve``, ...) with wrappers that record a span, and
``Tracer.uninstall`` puts the originals back, so nothing stays patched
outside a traced op. Spans are kept in memory and written out at the end.
Spans recorded in a party thread carry that party's role and session id;
``link_sessions`` points the outermost ones at their session span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from statistics import median

import numpy as np

from msbls import bls, datasets, experiment, linalg, protocol, transport

STEPS = (
    "blind_data",
    "blind_key_and_cross",
    "unblind_cross",
    "recover_cross_product",
    "assemble_mapped_features",
)
ROLES = ("server", "client_a", "client_b")
SEQS = range(1, 13)
MASK_SEQS = (1, 2, 6, 7)
SATURATION = 0.999


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    role: str | None = None
    session: str | None = None
    op: int | None = None  # None while setting up
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, role=None, session=None, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        sp = Span(
            next(self._ids), name, time.perf_counter(),
            parent=parent.id if parent else None,
            role=role or (parent.role if parent else None),
            session=session or (parent.session if parent else None),
            op=self.op, attrs=attrs,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        own = attr in vars(owner)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original if own else None))

    def _timed(self, name, tag=None, after=None):
        """Wrapper factory: ``tag`` adds span fields from the arguments and
        ``after`` annotates the span from the result once its clock stopped."""

        def make(fn):
            @functools.wraps(fn, updated=())
            def wrapper(*args, **kwargs):
                fields = tag(*args, **kwargs) if tag else {}
                with self.span(name, **fields) as sp:
                    out = fn(*args, **kwargs)
                if after:
                    after(sp, out, *args, **kwargs)
                return out

            return wrapper

        return make

    def _instrument(self, endpoints) -> None:
        for ep in endpoints:
            role = ep.role.name.lower()
            self._patch(ep, "send", self._timed("transport.send", tag=_send_fields))
            self._patch(ep, "recv", self._timed(
                "transport.recv", tag=functools.partial(_recv_fields, role), after=_mark_received,
            ))

    def install(self, endpoints=()) -> None:
        """Wrap every traced call site; ``endpoints`` are standing endpoints
        created before the install that should be traced too."""
        t = self._timed

        def instrument(sp, made, *args, **kwargs):
            self._instrument(made.values())

        self._patch(datasets, "synthetic_image_dataset", t("datasets.synthetic"))
        for owner in (experiment, datasets):
            self._patch(owner, "split_dataset", t("datasets.split"))
        for owner in (experiment, protocol):
            self._patch(owner, "run_protocol", t(
                "protocol.session", tag=_session_kind, after=_session_id,
            ))
        for owner in (experiment, transport):
            self._patch(owner, "make_tcp_endpoints", t("transport.connect", after=instrument))
        self._patch(experiment, "make_bus_endpoints", t("transport.bus", after=instrument))
        self._instrument(endpoints)
        self._patch(protocol, "draw_mask_set", t("protocol.mask_draw"))
        for step in STEPS:
            self._patch(protocol, step, t(f"protocol.step.{step}"))
        self._patch(protocol.Party, "handle", t("protocol.handle", tag=_handle_fields))
        self._patch(protocol, "as_matrix", t("protocol.validate"))
        for owner in (protocol, transport):
            self._patch(owner, "ProtocolMessage", t("messages.construct"))
        self._patch(transport, "encode_message", t("transport.encode", after=_frame_fields))
        self._patch(transport, "decode_message", t("transport.decode"))
        self._patch(transport, "read_frame", t("transport.read_frame"))
        self._patch(bls, "joint_mapped_features", t("bls.joint_features"))
        self._patch(bls, "enhancement_features", t("bls.enhancement", after=_saturation))
        self._patch(bls, "train_output_weights", t("bls.readout"))
        self._patch(bls, "predict_labels", t("bls.predict"))
        self._patch(bls, "ridge_solve", t("linalg.ridge_solve", tag=_ridge_flops))
        for draw in ("standard_normal", "uniform", "permutation"):
            self._patch(linalg.RngStream, draw, t("linalg.rng"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def encoded_bytes(self, op: int) -> dict[int, int]:
        """Bytes per seq of the frames encode_message returned during an op."""
        out: dict[int, int] = {}
        for sp in self.spans:
            if sp.op == op and sp.name == "transport.encode":
                out[sp.attrs["seq"]] = out.get(sp.attrs["seq"], 0) + sp.attrs["bytes"]
        return out

    def link_sessions(self) -> None:
        """Give each party thread's outermost spans their session span as parent."""
        sessions = {sp.session: sp.id for sp in self.spans if sp.name == "protocol.session"}
        for sp in self.spans:
            if sp.parent is None and sp.session in sessions and sp.name != "protocol.session":
                sp.parent = sessions[sp.session]

    def write(self, path) -> None:
        self.link_sessions()
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(asdict(sp)) + "\n")


def _session_kind(*args, **kwargs):
    keys = kwargs.get("keys", args[4] if len(args) > 4 else None)
    return {"kind": "train" if keys is None else "test"}


def _session_id(sp, result, *args, **kwargs):
    if result.transcript:
        sp.session = result.transcript[0].session_id


def _handle_fields(party, msg):
    return {"role": party.role.name.lower(), "session": party.session_id.hex(), "seq": msg.seq}


def _send_fields(msg):
    return {"role": msg.sender.name.lower(), "session": msg.session_id.hex(), "seq": msg.seq}


def _recv_fields(role, *args, **kwargs):
    return {"role": role}


def _mark_received(sp, msg, *args, **kwargs):
    sp.session = msg.session_id.hex()


def _frame_fields(sp, frame, msg):
    sp.session = msg.session_id.hex()
    sp.attrs.update(seq=msg.seq, bytes=len(frame))


def _saturation(sp, h, *args, **kwargs):
    sp.attrs.update(saturated=int(np.count_nonzero(np.abs(h) > SATURATION)), entries=h.size)


def _ridge_flops(a, y, ridge):
    """Operation count of the normal-equation solve on the smaller Gram."""
    n, f = np.shape(a)
    c = np.shape(y)[1]
    m, k = (f, n) if n >= f else (n, f)  # Gram order m, inner length k
    return {"flops": 2 * k * m * m + 2 * k * m * c + m ** 3 / 3 + 2 * m * m * c}


def _union(intervals) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def layer_metrics(tracer: Tracer, ops, outcomes, traced_times, untraced_times):
    """Fold the spans of the traced ops into the per-layer metrics.

    Times are per-op sums, reported as their median over ``ops``. Setup-only
    layers (dataset build; split and connect when no op does them) report
    the median of one call made while setting up. Returns the metrics and,
    for those set-up layers, their sample counts.
    """
    by_op = {op: [] for op in ops}
    setup: list[Span] = []
    children: dict[int, list[Span]] = {}
    for sp in tracer.spans:
        if sp.op is None:
            setup.append(sp)
        elif sp.op in by_op:
            by_op[sp.op].append(sp)
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def per_op(fn) -> float:
        return float(median(fn(spans) for spans in by_op.values()))

    def busy(name, role=None, **attrs):
        def fn(spans):
            return sum(
                sp.duration for sp in spans if sp.name == name
                and (role is None or sp.role == role)
                and all(sp.attrs.get(k) == v for k, v in attrs.items())
            )
        return per_op(fn)

    def count(name):
        return per_op(lambda spans: sum(sp.name == name for sp in spans))

    def net(name, role, child):
        def fn(spans):
            return sum(
                sp.duration - sum(c.duration for c in children.get(sp.id, ()) if c.name == child)
                for sp in spans if sp.name == name and (role is None or sp.role == role)
            )
        return per_op(fn)

    setup_samples = {}

    def setup_or_op(name, metric):
        if any(sp.name == name for spans in by_op.values() for sp in spans):
            return busy(name)
        calls = [sp.duration for sp in setup if sp.name == name]
        setup_samples[metric] = len(calls)
        return float(median(calls)) if calls else 0.0

    def self_time(spans):
        return sum(
            sp.duration - _union((c.start, c.end) for c in children.get(sp.id, ()))
            for sp in spans if sp.name == "experiment.op"
        )

    def saturation(spans):
        enh = [sp for sp in spans if sp.name == "bls.enhancement"]
        entries = sum(sp.attrs["entries"] for sp in enh)
        return sum(sp.attrs["saturated"] for sp in enh) / entries if entries else 0.0

    m = {
        "datasets.synthetic_s": setup_or_op("datasets.synthetic", "datasets.synthetic_s"),
        "datasets.split_s": setup_or_op("datasets.split", "datasets.split_s"),
        "protocol.session_s.train": busy("protocol.session", kind="train"),
        "protocol.session_s.test": busy("protocol.session", kind="test"),
        "protocol.mask_draw_s": busy("protocol.mask_draw"),
        "protocol.validate_calls": count("protocol.validate"),
        "protocol.validate_s": busy("protocol.validate"),
        "messages.count": count("messages.construct"),
        "messages.construct_s": busy("messages.construct"),
        "transport.encode_s": busy("transport.encode"),
        "transport.decode_s": busy("transport.decode"),
        "transport.read_frame_s": busy("transport.read_frame"),
        "transport.send_s": net("transport.send", None, "transport.encode"),
        "transport.connect_s": setup_or_op("transport.connect", "transport.connect_s"),
        "bls.joint_features_s": busy("bls.joint_features"),
        "bls.enhancement_s": busy("bls.enhancement"),
        "bls.predict_s": busy("bls.predict"),
        "bls.readout_s": busy("bls.readout"),
        "bls.saturated_frac": per_op(saturation),
        "linalg.ridge_solve_s": busy("linalg.ridge_solve"),
        "linalg.ridge_solve_flops": per_op(
            lambda spans: sum(sp.attrs["flops"] for sp in spans if sp.name == "linalg.ridge_solve")
        ),
        "linalg.rng_s": busy("linalg.rng"),
        "experiment.self_s": per_op(self_time),
    }
    for role in ROLES:
        m[f"protocol.handle_s.{role}"] = busy("protocol.handle", role=role)
        m[f"transport.recv_wait_s.{role}"] = net("transport.recv", role, "transport.decode")
    for seq in SEQS:
        m[f"protocol.handle_s.seq{seq}"] = busy("protocol.handle", seq=seq)
    for step in STEPS:
        m[f"protocol.step_s.{step}"] = busy(f"protocol.step.{step}")

    for seq in SEQS:
        m[f"transport.bytes.seq{seq}"] = float(median(o.seq_bytes.get(seq, 0) for o in outcomes))
    m["transport.frames"] = float(median(o.frames for o in outcomes))
    m["transport.mask_bytes_frac"] = float(median(
        sum(o.seq_bytes.get(s, 0) for s in MASK_SEQS) / sum(o.seq_bytes.values())
        if o.seq_bytes else 0.0
        for o in outcomes
    ))
    drifts = [o.weight_drift for o in outcomes if o.weight_drift is not None]
    m["linalg.weight_drift"] = float(median(drifts)) if drifts else 0.0
    m["trace.overhead_frac"] = float(median(traced_times) / median(untraced_times) - 1.0)
    return m, setup_samples
