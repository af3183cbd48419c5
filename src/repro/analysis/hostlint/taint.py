"""Taint-style reachability: nondeterminism sources → determinism sinks.

The question every determinism rule reduces to is *"can a value a
rerun would compute differently reach something the campaign
fingerprints, serializes, or keys artifacts by?"*.  Two source
domains:

* ``wallclock`` — ``time.time``/``perf_counter``/``monotonic``/
  ``datetime.now`` and friends.  Fine for progress display; fatal in a
  journal line, an artifact key, or a service status projection that
  tests want to pin.
* ``env`` — ``os.environ``/``os.getenv`` reads.  Artifact keys must be
  engine-free (PR 3/6): the key of a result may depend only on what
  the result *is*, never on which engine or evaluator produced it.

Sinks are the places where bytes become durable or comparable: the
``repro.pipeline.keys`` fingerprint functions, checkpoint journal
appends (``RunDirectory.append_shard``), HTTP response bodies
(``HttpResponse.json``), and raw ``json.dump(s)``.

The analysis is a whole-package fixpoint over three monotone maps —
functions whose *return value* is tainted, class attributes that hold
tainted values (including dataclass ``field(default_factory=<source>)``
declarations and constructor-argument flows), and function *parameters*
that receive tainted arguments at some call site.  Within a function,
propagation is a linear, union-only pass (branches merge, loops run
twice for carried taint) — deliberately path-insensitive: a value that
is tainted on *some* path is a finding.

``repro.obs`` is exempt from source collection: observability is the
one place wall-clock reads are the point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import walk_scope

#: taint domains
WALLCLOCK = "wallclock"
ENV = "env"

#: dotted call targets that introduce taint, by domain
SOURCES = {
    "time.time": WALLCLOCK,
    "time.time_ns": WALLCLOCK,
    "time.perf_counter": WALLCLOCK,
    "time.perf_counter_ns": WALLCLOCK,
    "time.monotonic": WALLCLOCK,
    "time.monotonic_ns": WALLCLOCK,
    "time.process_time": WALLCLOCK,
    "datetime.datetime.now": WALLCLOCK,
    "datetime.datetime.utcnow": WALLCLOCK,
    "datetime.datetime.today": WALLCLOCK,
    "datetime.date.today": WALLCLOCK,
    "os.getenv": ENV,
    "os.environ.get": ENV,
    "os.environ.__getitem__": ENV,
    "os.environb.get": ENV,
}

#: dotted names that are tainted as *values* (no call needed)
SOURCE_VALUES = {
    "os.environ": ENV,
    "os.environb": ENV,
}

#: modules exempt from source collection (observability owns the clock)
EXEMPT_PREFIXES = ("repro.obs",)

#: external sinks: dotted name -> sink kind
EXTERNAL_SINKS = {
    "json.dump": "json",
    "json.dumps": "json",
}

#: package sinks: (module, class or None, function name) -> sink kind
PACKAGE_SINKS = {
    ("repro.pipeline.keys", None, "canonical_json"): "key",
    ("repro.pipeline.keys", None, "digest"): "key",
    ("repro.pipeline.keys", None, "artifact_key"): "key",
    ("repro.pipeline.keys", None, "config_fingerprint"): "key",
    ("repro.pipeline.keys", None, "thresholds_fingerprint"): "key",
    ("repro.pipeline.keys", None, "program_fingerprint"): "key",
    ("repro.pipeline.keys", None, "profile_fingerprint"): "key",
    ("repro.campaign.checkpoint", "RunDirectory", "append_shard"):
        "checkpoint",
    ("repro.service.http", "HttpResponse", "json"): "response",
    ("repro.obs.ledger", "RunLedger", "append"): "ledger",
}


@dataclass(frozen=True)
class SourceSite:
    """One direct read of a nondeterminism source."""

    fn: object  # FunctionInfo (or None for class-body declarations)
    module: object  # ModuleInfo
    node: object  # the Call / Attribute / AnnAssign node
    domain: str
    dotted: str  # what was called/read, e.g. "time.perf_counter"
    deferred: bool = False  # a default_factory reference, not a call


@dataclass(frozen=True)
class SinkFlow:
    """A tainted value reaching a sink call argument."""

    fn: object  # FunctionInfo containing the sink call
    node: object  # the sink ast.Call
    sink: str  # dotted/qualified name of the sink
    kind: str  # "key" | "checkpoint" | "response" | "json"
    domains: frozenset


class TaintAnalysis:
    """Whole-package source→sink reachability over a PackageIndex."""

    def __init__(self, index):
        self.index = index
        self.tainted_returns = {}  # qualname -> frozenset(domains)
        self.tainted_attrs = {}  # (class qualname, attr) -> frozenset
        self.tainted_params = {}  # (qualname, param) -> frozenset
        self.source_sites = []  # [SourceSite], final pass only
        self.sink_flows = []  # [SinkFlow], final pass only
        self._sink_functions = self._resolve_package_sinks()
        self._collecting = False
        self._changed = False
        self._run()

    # --- setup ------------------------------------------------------------------

    def _resolve_package_sinks(self):
        resolved = {}
        for (module, klass, name), kind in PACKAGE_SINKS.items():
            if klass:
                qualname = "%s.%s.%s" % (module, klass, name)
            else:
                qualname = "%s.%s" % (module, name)
            if qualname in self.index.functions:
                resolved[qualname] = kind
        return resolved

    def _seed_class_declarations(self):
        """Dataclass fields declared with a source default_factory are
        tainted from birth: ``field(default_factory=time.time)``."""
        for info in self.index.classes.values():
            module = info.module
            for item in info.node.body:
                if not (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and isinstance(item.value, ast.Call)):
                    continue
                func = module.resolve_attribute(item.value.func)
                if func not in ("dataclasses.field", "field"):
                    continue
                for keyword in item.value.keywords:
                    if keyword.arg != "default_factory":
                        continue
                    factory = module.resolve_attribute(keyword.value)
                    domain = SOURCES.get(factory)
                    if domain:
                        self._note_attr(info.qualname, item.target.id,
                                        frozenset([domain]))
                        self._declared_sources.append(SourceSite(
                            fn=None, module=module, node=item,
                            domain=domain, dotted=factory,
                            deferred=True))

    # --- fixpoint ---------------------------------------------------------------

    def _run(self):
        self._declared_sources = []
        self._seed_class_declarations()
        for _ in range(12):  # generous bound; converges in a few rounds
            self._changed = False
            for qualname in self.index.functions:
                _FunctionPass(self, self.index.functions[qualname]).run()
            if not self._changed:
                break
        self._collecting = True
        for qualname in self.index.functions:
            _FunctionPass(self, self.index.functions[qualname]).run()
        self.source_sites.extend(self._declared_sources)
        self.source_sites.sort(key=_site_order)
        self.sink_flows.sort(
            key=lambda flow: (flow.fn.module.relpath, flow.node.lineno,
                              flow.node.col_offset))

    # --- monotone map updates ---------------------------------------------------

    def _note_return(self, qualname, domains):
        self._merge(self.tainted_returns, qualname, domains)

    def _note_attr(self, klass, attr, domains):
        self._merge(self.tainted_attrs, (klass, attr), domains)

    def _note_param(self, qualname, param, domains):
        self._merge(self.tainted_params, (qualname, param), domains)

    def _merge(self, mapping, key, domains):
        if not domains:
            return
        current = mapping.get(key, frozenset())
        merged = current | frozenset(domains)
        if merged != current:
            mapping[key] = merged
            self._changed = True

    def attr_domains(self, klass, attr):
        """Taint of ``<klass instance>.<attr>``, searching base classes."""
        info = self.index.classes.get(klass)
        while info is not None:
            key = (info.qualname, attr)
            if key in self.tainted_attrs:
                return self.tainted_attrs[key]
            info = self.index._parent_class(info)
        return frozenset()

    def is_exempt(self, module_name):
        return any(module_name == prefix
                   or module_name.startswith(prefix + ".")
                   for prefix in EXEMPT_PREFIXES)


def _site_order(site):
    return (site.module.relpath, site.node.lineno, site.node.col_offset)


class _FunctionPass:
    """One union-only propagation pass over one function body."""

    def __init__(self, analysis, fn):
        self.analysis = analysis
        self.fn = fn
        self.env = {}
        self._record = False
        for param in fn.param_names():
            domains = analysis.tainted_params.get((fn.qualname, param))
            if domains:
                self.env[param] = frozenset(domains)

    def run(self):
        # Two sweeps so loop-carried taint (assigned late, used early)
        # settles; the env only grows, so this terminates.  Sources and
        # sinks are recorded on the second sweep only, once the env for
        # this function is complete.
        self._exec(self.fn.body)
        self._record = True
        self._exec(self.fn.body)

    # --- statements -------------------------------------------------------------

    def _exec(self, statements):
        for node in statements:
            self._exec_one(node)

    def _exec_one(self, node):
        if isinstance(node, ast.Assign):
            domains = self._eval(node.value)
            for target in node.targets:
                self._assign(target, domains)
        elif isinstance(node, ast.AugAssign):
            domains = self._eval(node.value) | self._load(node.target)
            self._assign(node.target, domains)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._eval(node.value))
        elif isinstance(node, ast.Return):
            if node.value is not None:
                domains = self._eval(node.value)
                self.analysis._note_return(self.fn.qualname, domains)
        elif isinstance(node, ast.Expr):
            self._eval(node.value)
        elif isinstance(node, ast.If):
            self._eval(node.test)
            self._exec(node.body)
            self._exec(node.orelse)
        elif isinstance(node, ast.For):
            self._assign(node.target, self._eval(node.iter))
            self._exec(node.body)
            self._exec(node.orelse)
        elif isinstance(node, ast.While):
            self._eval(node.test)
            self._exec(node.body)
            self._exec(node.orelse)
        elif isinstance(node, ast.With):
            for item in node.items:
                domains = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, domains)
            self._exec(node.body)
        elif isinstance(node, ast.Try):
            self._exec(node.body)
            for handler in node.handlers:
                self._exec(handler.body)
            self._exec(node.orelse)
            self._exec(node.finalbody)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # separate FunctionInfo/ClassInfo records
        # Import/Pass/Break/...: nothing flows

    def _assign(self, target, domains):
        if isinstance(target, ast.Name):
            self._merge_env(target.id, domains)
        elif isinstance(target, ast.Attribute):
            if (isinstance(target.value, ast.Name)
                    and target.value.id == "self" and self.fn.klass):
                self.analysis._note_attr(self.fn.klass, target.attr,
                                         domains)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, domains)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, domains)
        # Subscript targets: container element taint folds into nothing
        # we can name; sinks re-derive through the container variable.

    def _merge_env(self, name, domains):
        if domains:
            self.env[name] = self.env.get(name, frozenset()) | domains

    def _load(self, target):
        if isinstance(target, ast.Name):
            return self.env.get(target.id, frozenset())
        return frozenset()

    # --- expressions ------------------------------------------------------------

    def _eval(self, expr):
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Subscript):
            # os.environ["X"] taints through the Attribute evaluation.
            domains = self._eval(expr.value)
            if isinstance(expr.slice, ast.expr):
                domains = domains | self._eval(expr.slice)
            return domains
        if isinstance(expr, ast.Dict):
            domains = frozenset()
            for key in expr.keys:
                if key is not None:
                    domains |= self._eval(key)
            for value in expr.values:
                domains |= self._eval(value)
            return domains
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            domains = frozenset()
            for element in expr.elts:
                domains |= self._eval(element)
            return domains
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        if isinstance(expr, ast.NamedExpr):
            domains = self._eval(expr.value)
            self._assign(expr.target, domains)
            return domains
        if isinstance(expr, ast.Lambda):
            return frozenset()  # deferred body; submit rules handle these
        if isinstance(expr, (ast.Constant,)):
            return frozenset()
        # BinOp/BoolOp/Compare/IfExp/JoinedStr/FormattedValue/
        # comprehensions/...: union over child expressions.
        domains = frozenset()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                domains |= self._eval(child)
            elif isinstance(child, ast.comprehension):
                self._assign(child.target, self._eval(child.iter))
                for condition in child.ifs:
                    self._eval(condition)
        return domains

    def _eval_attribute(self, expr):
        dotted = self.fn.module.resolve_attribute(expr)
        if dotted in SOURCE_VALUES:
            self._record_source(expr, SOURCE_VALUES[dotted], dotted)
            return frozenset([SOURCE_VALUES[dotted]])
        domains = self._eval(expr.value)
        receiver = self.analysis.index._receiver_type(self.fn,
                                                      expr.value)
        if receiver:
            domains |= self.analysis.attr_domains(
                self.analysis.index._canonical_type(receiver),
                expr.attr)
        return domains

    def _eval_call(self, node):
        analysis = self.analysis
        index = analysis.index
        site = index.resolve_call(self.fn, node)
        arg_domains = [self._eval(arg) for arg in node.args]
        kw_domains = {}
        all_args = frozenset()
        for domains in arg_domains:
            all_args |= domains
        for keyword in node.keywords:
            domains = self._eval(keyword.value)
            all_args |= domains
            if keyword.arg is not None:
                kw_domains[keyword.arg] = domains
        self._propagate_into_callees(site, node, arg_domains, kw_domains)

        result = frozenset()
        if site.external in SOURCES:
            result |= frozenset([SOURCES[site.external]])
            self._record_source(node, SOURCES[site.external],
                                site.external)
        for target in site.targets:
            result |= analysis.tainted_returns.get(target, frozenset())
        if not site.targets or site.external in EXTERNAL_SINKS:
            # External/unresolved calls pass taint through their
            # arguments (round(x), str(x), json.dumps(payload), ...).
            result |= all_args
        self._maybe_record_sink(site, node, all_args)
        return result

    def _propagate_into_callees(self, site, node, arg_domains,
                                kw_domains):
        index = self.analysis.index
        for target in site.targets:
            callee = index.functions[target]
            params = callee.param_names()
            if callee.klass is not None and params:
                params = params[1:]  # bound self/cls
            for position, domains in enumerate(arg_domains):
                if position < len(params):
                    self.analysis._note_param(target, params[position],
                                              domains)
            for name, domains in kw_domains.items():
                if name in params:
                    self.analysis._note_param(target, name, domains)
        # Constructing a package class: arguments land in attributes.
        external = site.external
        if external in index.classes:
            info = index.classes[external]
            fields = self._ctor_fields(info)
            for position, domains in enumerate(arg_domains):
                if position < len(fields):
                    self.analysis._note_attr(info.qualname,
                                             fields[position], domains)
            for name, domains in kw_domains.items():
                self.analysis._note_attr(info.qualname, name, domains)

    def _ctor_fields(self, info):
        init = info.methods.get("__init__")
        if init:
            params = self.analysis.index.functions[init].param_names()
            return params[1:] if params else []
        return info.fields  # dataclass declaration order

    def _maybe_record_sink(self, site, node, all_args):
        if not (self._record and self.analysis._collecting
                and all_args):
            return
        kind = None
        sink = None
        for target in site.targets:
            if target in self.analysis._sink_functions:
                kind = self.analysis._sink_functions[target]
                sink = target
                break
        if kind is None and site.external in EXTERNAL_SINKS:
            kind = EXTERNAL_SINKS[site.external]
            sink = site.external
        if kind is None:
            return
        self.analysis.sink_flows.append(SinkFlow(
            fn=self.fn, node=node, sink=sink, kind=kind,
            domains=all_args))

    def _record_source(self, node, domain, dotted):
        if not (self._record and self.analysis._collecting):
            return
        if self.analysis.is_exempt(self.fn.module.name):
            return
        self.analysis.source_sites.append(SourceSite(
            fn=self.fn, module=self.fn.module, node=node,
            domain=domain, dotted=dotted))


def sorted_sink_targets(index):
    """The resolved in-package sink qualnames (for docs/tests)."""
    resolved = TaintAnalysis.__new__(TaintAnalysis)
    resolved.index = index
    return sorted(resolved._resolve_package_sinks())
