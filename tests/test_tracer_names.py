"""The benchmark tracer (``perfbench/tracer.py``) patches sdinv functions and
methods by name.  A renamed or deleted name would zero a per-layer metric
that is only checked under ``--trace 1``; this makes it fail here instead."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_namespace() -> dict:
    # executed from its source, so nothing is written under perfbench/
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module("sdinv." + ("_factor" if module == "factor" else module))
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_tracer_names_resolve_in_sdinv():
    tracer = _tracer_namespace()
    names = [span for span, _ in tracer["SPAN_METRICS"].values()]
    names += [".".join(method) for method in tracer["METHODS"]]
    names.append("certificate.build_certificate")
    for name in names:
        assert callable(_resolve(name)), name
    for module, attr in tracer["CACHES"].values():
        assert hasattr(_resolve(f"{module}.{attr}"), "cache_info"), attr


def test_witt_pass_reaches_every_span_the_witt_benchmark_requires(monkeypatch):
    """``perfbench/run.py`` marks a traced witt pass incorrect when one of
    these spans reads zero calls; a witt suite must reach each of them."""
    from sdinv import wittq

    calls = dict.fromkeys(
        ("witt_invariants", "hilbert_symbol", "sample_chain_configuration", "factorize"), 0
    )

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(wittq, name, counting(name, getattr(wittq, name)))
    wittq._decision.cache_clear()
    wittq.verify_identity("alpha4_full", 3, 1)
    assert all(calls.values()), calls
