"""Per-layer tracing from outside the package.

Each public function of a layer is wrapped where its caller looks it up
(``mpdl.orchestrator.keygen``, not ``mpdl.paillier.keygen``, because the
orchestrator imported the name), so the package itself is untouched.
A wrapper records one span per call: its duration, the part of it
covered by wrapped children (for self time) and, where the layer has a
natural unit of work, a count taken from the call's arguments or result.
Spans are folded into per-name totals as they close, so memory stays
flat on workloads with tens of thousands of messages.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

LAYERS = ("paillier", "dual", "density", "data", "privacy", "central", "nn",
          "transport", "orchestrator")

# transcript kinds that mpdl_train sends (MatrixBlock is graph-only)
RUN_KINDS = ("InferredBatch", "GradTerm", "CipherBlock", "PartialSum",
             "DeltaError", "BlindedIds", "Control")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith("_per_grad_entry"):
        return "ratio"
    return "count"


def _result_len(args, result) -> int:
    return len(result)


def _kernel_evals(args, result) -> int:
    # log_density_batch / grad_log_density_batch(model, x): one kernel
    # per (batch row, support row) pair
    return len(result) * args[0].support.shape[0]


def _grad_entries(args, result) -> int:
    # run_dual_round: each side receives a batch x partner-width cross term
    pair = result.pair
    return len(result.record.batch_ids) * (pair.a_to_b.out_width +
                                           pair.b_to_a.out_width)


@dataclass(frozen=True)
class Site:
    """One wrapped lookup site.

    ``target`` is ``module:attr`` or ``module:Class.attr``; ``always``
    says every workload must call it, otherwise only encrypted ones.
    """

    target: str
    span: str
    count: Callable | None = None
    always: bool = True


def _sites() -> tuple[Site, ...]:
    codec = [("mpdl.transport", n) for n in ("encode_message",
                                              "decode_message")]
    codec += [(m, n) for m in ("mpdl.dual", "mpdl.orchestrator")
              for n in ("pack_matrix", "unpack_matrix")]
    codec += [("mpdl.orchestrator", n) for n in ("pack_json", "unpack_json",
                                                 "pack_tokens",
                                                 "unpack_tokens")]
    codec += [("mpdl.data", n) for n in ("pack_tokens", "unpack_tokens")]
    return (
        Site("mpdl.orchestrator:keygen", "paillier.keygen"),
        Site("mpdl.paillier:encrypt_vector", "paillier.encrypt",
             _result_len, always=False),
        Site("mpdl.paillier:dual_scalar_product", "paillier.mul",
             _result_len, always=False),
        Site("mpdl.paillier:negate_cipher", "paillier.negate", _result_len,
             always=False),
        Site("mpdl.paillier:decrypt_vector", "paillier.decrypt",
             _result_len, always=False),
        Site("mpdl.orchestrator:run_dual_round", "dual.round",
             _grad_entries),
        Site("mpdl.orchestrator:dual_infer", "dual.infer"),
        Site("mpdl.orchestrator:fit_kde", "density.fit"),
        Site("mpdl.dual:log_density_batch", "density.logp", _kernel_evals),
        Site("mpdl.dual:grad_log_density_batch", "density.grad",
             _kernel_evals),
        Site("mpdl.orchestrator:blinded_intersection", "data.align"),
        Site("mpdl.data:PartyDataset.rows", "data.rows", _result_len),
        Site("mpdl.privacy:OneShotPerturber.perturb", "privacy.perturb"),
        Site("mpdl.orchestrator:party_forward", "central.forward"),
        Site("mpdl.orchestrator:central_forward_backward", "central.fwd_bwd"),
        Site("mpdl.orchestrator:party_backward", "central.backward"),
        Site("mpdl.dual:mlp_forward", "nn.mlp_forward"),
        Site("mpdl.orchestrator:mlp_forward", "nn.mlp_forward"),
        Site("mpdl.central:mlp_forward", "nn.mlp_forward"),
        Site("mpdl.dual:backprop_from_output_grad", "nn.backprop"),
        Site("mpdl.central:backprop_from_output_grad", "nn.backprop"),
        Site("mpdl.dual:sgd_step", "nn.sgd"),
        Site("mpdl.orchestrator:sgd_step", "nn.sgd"),
        Site("mpdl.transport:Hub.send", "transport.send"),
        Site("mpdl.transport:Hub.recv", "transport.recv"),
        *(Site(f"{m}:{n}", "transport.codec") for m, n in codec),
        Site("mpdl.dual:pack_ciphers", "transport.codec", always=False),
        Site("mpdl.dual:unpack_ciphers", "transport.codec", always=False),
        Site("mpdl.orchestrator:mpdl_train", "orchestrator.run"),
        Site("mpdl.orchestrator:predict_unlabeled",
             "orchestrator.predict_unlabeled"),
    )


SITES = _sites()


def _resolve(target: str):
    """(owner object, attribute name) for a ``module:attr`` target."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined on its owner")
    return owner, attr


class SpanStats:
    __slots__ = ("calls", "total", "self", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.items = 0


class Tracer:
    """Context manager: wraps every site on entry, restores them on exit."""

    def __init__(self):
        self.sites = SITES
        self.spans: dict[str, SpanStats] = {}
        self.site_calls: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, site: Site, original):
        stats = self.spans.setdefault(site.span, SpanStats())
        self.site_calls[site.target] = 0
        stack, site_calls, count = self._stack, self.site_calls, site.count
        target = site.target

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stats.calls += 1
                stats.total += took
                stats.self += took - children[0]
                site_calls[target] += 1
            if count is not None:
                stats.items += count(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def __enter__(self):
        try:
            for site in self.sites:
                owner, attr = _resolve(site.target)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(site, original))
                self._saved.append((owner, attr, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def leftover(self) -> list[str]:
        """Sites still wrapped (none once the ``with`` block has exited)."""
        out = []
        for site in self.sites:
            owner, attr = _resolve(site.target)
            if hasattr(vars(owner)[attr], "__wrapped__"):
                out.append(site.target)
        return out

    def missing_calls(self, encrypted: bool) -> list[str]:
        """Sites this workload must reach that recorded no call."""
        return [s.target for s in self.sites
                if (s.always or encrypted) and
                self.site_calls.get(s.target, 0) == 0]

    def layer_metrics(self, transcript_stats: dict) -> dict[str, float]:
        """Per-layer metrics of one traced ``mpdl_train`` call."""
        def span(name):
            return self.spans.get(name, SpanStats())

        def total(name):
            return span(name).total

        run_s = total("orchestrator.run")
        decrypts = span("paillier.decrypt").items
        entries = span("dual.round").items
        m = {
            "paillier.keygen_s": total("paillier.keygen"),
            "paillier.decrypts_per_grad_entry":
                decrypts / entries if entries else 0.0,
            "dual.rounds": span("dual.round").calls,
            "dual.round_s": total("dual.round"),
            "dual.round_self_s": span("dual.round").self,
            "dual.infer_s": total("dual.infer"),
            "density.fit_s": total("density.fit"),
            "density.logp_s": total("density.logp"),
            "density.logp_calls": span("density.logp").calls,
            "density.grad_s": total("density.grad"),
            "density.grad_calls": span("density.grad").calls,
            "density.kernel_evals": (span("density.logp").items +
                                     span("density.grad").items),
            "data.align_s": total("data.align"),
            "data.rows_s": total("data.rows"),
            "data.rows_calls": span("data.rows").calls,
            "data.rows_fetched": span("data.rows").items,
            "privacy.perturb_s": total("privacy.perturb"),
            "central.forward_s": total("central.forward"),
            "central.fwd_bwd_s": total("central.fwd_bwd"),
            "central.backward_s": total("central.backward"),
            "central.steps": span("central.fwd_bwd").calls,
            "nn.mlp_forward_s": total("nn.mlp_forward"),
            "nn.backprop_s": total("nn.backprop"),
            "nn.sgd_s": total("nn.sgd"),
            "transport.send_s": total("transport.send"),
            "transport.recv_s": total("transport.recv"),
            "transport.codec_s": total("transport.codec"),
            "transport.msgs": transcript_stats["msgs"],
            "transport.frame_bytes": transcript_stats["bytes"],
            "orchestrator.run_s": run_s,
            "orchestrator.self_s": span("orchestrator.run").self,
            "orchestrator.predict_unlabeled_s":
                total("orchestrator.predict_unlabeled"),
        }
        for op in ("encrypt", "mul", "negate", "decrypt"):
            m[f"paillier.{op}_s"] = total(f"paillier.{op}")
            m[f"paillier.{op}_n"] = span(f"paillier.{op}").items
        for kind in RUN_KINDS:
            m[f"transport.msgs.{kind}"] = transcript_stats["msgs_by_kind"].get(
                kind, 0)
            m[f"transport.bytes.{kind}"] = transcript_stats[
                "bytes_by_kind"].get(kind, 0)
        for layer in LAYERS:
            m[f"split.{layer}_s"] = sum(
                s.self for name, s in self.spans.items()
                if name.split(".")[0] == layer)
        return m
