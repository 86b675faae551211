"""Span tracing around the public functions of the dmsn modules.

The tracer wraps every public function defined in the traced modules and
replaces *every* reference to it that the library holds: the defining
module's attribute, the names other dmsn modules imported from it, the
package's re-exports, and function values stored in module-level dicts (such
as ``training.OPTIMIZER_STEPS`` and ``training.LOSSES``).  ``uninstall``
puts every original back.  Spans live in memory as plain tuples until the
run ends.
"""

from __future__ import annotations

import inspect
import sys
import time

from dmsn import tensorfile

TRACED_MODULES = ("ops", "blocks", "model", "training", "pipeline",
                  "tensorfile")
ROOT_SPAN = "bench.op"
_MARK = "__perfbench_span__"


def _conv_fwd_tag(args, kwargs, result):
    n, _, t, h, w = result.shape
    spec = args[1]
    return spec, n * t * h * w * spec.weight_count


def _conv_bwd_tag(args, kwargs, result):
    n, _, t, h, w = args[3].shape
    spec = args[1]
    return spec, n * t * h * w * spec.weight_count, result[0] is not None


def _linear_fwd_tag(args, kwargs, result):
    rows, _ = args[0].shape
    out_f, in_f = args[1].shape
    return rows * out_f * in_f


def _first_arg_tag(args, kwargs, result):
    return args[0]


def _block_prefix_tag(args, kwargs, result):
    return args[4] if len(args) > 4 else kwargs.get("prefix", "")


def _encoded_bytes_tag(args, kwargs, result):
    return len(result)


def _decoded_bytes_tag(args, kwargs, result):
    return tensorfile._HEADER.size + result.nbytes


# Per-function span tags, computed from the call after it returns; the
# layer metrics read them.  Everything else gets a ``None`` tag.
TAGGERS = {
    "ops.conv3d_forward": _conv_fwd_tag,
    "ops.conv3d_backward": _conv_bwd_tag,
    "ops.linear_forward": _linear_fwd_tag,
    "blocks.unit_forward": _first_arg_tag,
    "blocks.unit_backward": _first_arg_tag,
    "blocks.block_forward": _block_prefix_tag,
    "blocks.block_backward": _block_prefix_tag,
    "tensorfile.tensor_to_bytes": _encoded_bytes_tag,
    "tensorfile.tensor_from_stream": _decoded_bytes_tag,
}


class Tracer:
    """Records ``(name, start_ns, end_ns, parent, step, tag)`` spans.

    A span's parent is the index of the enclosing span in ``spans`` (-1 for
    none); ``step`` is the benchmark operation the span belongs to.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._step = -1
        self._patches: list[tuple[object, object, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack
        tagger = TAGGERS.get(span_name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (span_name, t0, t1, parent, self._step, None)
            if tagger is not None:
                spans[sid] = (span_name, t0, t1, parent, self._step,
                              tagger(args, kwargs, result))
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of the traced modules everywhere."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"dmsn.{short}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        self._patches = replace_everywhere(wrappers)

    def uninstall(self) -> None:
        """Restore every reference ``install`` replaced."""
        restore(self._patches)

    # -- operation boundaries --------------------------------------------------

    def run_op(self, step: int, fn, *args):
        """Run ``fn(*args)`` as benchmark operation ``step`` under a root span."""
        self._step = step
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (ROOT_SPAN, t0, t1, -1, step, None)
            self._step = -1

    def write(self, path) -> None:
        """Write spans as tab-separated ``id name start end parent step``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tstep\n")
            for sid, (name, t0, t1, parent, step, _) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{t0}\t{t1}\t{parent}\t{step}\n")


def replace_everywhere(replacements: dict) -> list:
    """Point every library reference to a key of ``replacements`` at its value.

    Covers module attributes and values of module-level dicts.  Returns the
    patches for ``restore``.
    """
    by_id = {id(old): new for old, new in replacements.items()}
    patches = []

    def patch(owner: dict, key) -> None:
        patches.append((owner, key, owner[key]))
        owner[key] = by_id[id(owner[key])]

    for module in library_modules():
        namespace = vars(module)
        for name, obj in list(namespace.items()):
            if id(obj) in by_id:
                patch(namespace, name)
            elif type(obj) is dict and not name.startswith("__"):
                for key, value in list(obj.items()):
                    if id(value) in by_id:
                        patch(obj, key)
    return patches


def restore(patches: list) -> None:
    """Undo ``replace_everywhere``, newest patch first; empties ``patches``."""
    while patches:
        owner, key, original = patches.pop()
        owner[key] = original


def library_modules():
    """The dmsn package and every loaded submodule."""
    return [m for name, m in sorted(sys.modules.items())
            if (name == "dmsn" or name.startswith("dmsn.")) and m is not None]


def leftover_wrappers() -> list[str]:
    """Names of any tracer wrapper still reachable from the library."""
    found = []
    for module in library_modules():
        for name, obj in vars(module).items():
            if hasattr(obj, _MARK):
                found.append(f"{module.__name__}.{name}")
            elif type(obj) is dict and not name.startswith("__"):
                found.extend(f"{module.__name__}.{name}[{key!r}]"
                             for key, value in obj.items()
                             if hasattr(value, _MARK))
    return found
