"""Package index: functions, classes, types, and a light call graph.

The checker needs to answer questions like "what does
``self._ensure_pool().submit`` call?" and "which functions can a pool
entry point reach?" without running any code.  This module builds the
necessary approximation from ASTs alone:

* every function, method, *nested* function, and a synthetic
  ``<module>`` body per file become :class:`FunctionInfo` records;
* classes record their (resolved) bases, their methods, and a
  best-effort *attribute type map* harvested from ``self.x =
  ClassName(...)`` assignments and annotated dataclass fields;
* functions get a best-effort *return type* (the class their return
  expressions construct);
* call sites resolve through: imports → local functions → ``self``
  methods → typed locals/attributes → one-level return types → a
  unique-method-name fallback.  Unresolvable calls resolve to nothing
  rather than to everything — the checker prefers false negatives over
  noise.

Everything is deterministic: modules arrive sorted, and every map is
iterated in insertion or sorted order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .modules import build_import_graph


@dataclass
class FunctionInfo:
    """One analyzable body of statements (function, method, module)."""

    module: object  # ModuleInfo
    qualname: str  # "repro.campaign.scheduler.ShardScheduler._launch"
    name: str
    node: object  # FunctionDef | AsyncFunctionDef | Module
    klass: str = None  # enclosing class qualname, if a method
    parent: str = None  # enclosing function qualname, if nested
    is_async: bool = False
    return_type: str = None  # dotted type of returned values, if known
    local_types: dict = field(default_factory=dict)  # name -> dotted type

    @property
    def body(self):
        return self.node.body

    @property
    def is_module_body(self):
        return isinstance(self.node, ast.Module)

    @property
    def is_nested(self):
        return self.parent is not None

    def param_names(self):
        """Positional/keyword parameter names, ``self``/``cls`` included."""
        if self.is_module_body:
            return []
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        names.extend(a.arg for a in args.kwonlyargs)
        return names


@dataclass
class ClassInfo:
    """One class: bases, methods, and attribute types/factories."""

    module: object
    qualname: str
    name: str
    node: object
    bases: list = field(default_factory=list)  # resolved dotted names
    methods: dict = field(default_factory=dict)  # name -> qualname
    attr_types: dict = field(default_factory=dict)  # attr -> dotted type
    fields: list = field(default_factory=list)  # annotated attrs, in order


@dataclass
class CallSite:
    """One resolved call expression inside a function."""

    node: object  # the ast.Call
    targets: tuple = ()  # internal FunctionInfo qualnames
    external: str = None  # dotted external name ("time.sleep"), if any


def walk_scope(body):
    """Yield every node in ``body`` without entering nested defs."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class PackageIndex:
    """All modules of one package, cross-referenced for the rules."""

    def __init__(self, modules):
        self.modules = {module.name: module for module in modules}
        self.import_graph = build_import_graph(modules)
        self.functions = {}  # qualname -> FunctionInfo
        self.classes = {}  # qualname -> ClassInfo
        self.by_method_name = {}  # bare name -> [qualname]
        self.module_globals = {}  # module -> {name: "mutable"|"value"}
        self.param_types = {}  # (qualname, param) -> dotted type
        self._calls = {}  # qualname -> [CallSite]
        for module in modules:
            self._collect_module(module)
        # Types feed call resolution and call resolution feeds types
        # (an argument's type becomes the callee's parameter type), so
        # inference iterates to a fixpoint.  Every map is first-write-
        # wins, so this is monotone and the bound is generous.
        for _ in range(5):
            if not self._infer_round():
                break

    # --- collection -------------------------------------------------------------

    def _collect_module(self, module):
        body_fn = FunctionInfo(module=module,
                               qualname="%s.<module>" % module.name,
                               name="<module>", node=module.tree)
        self._register(body_fn)
        self.module_globals[module.name] = self._globals_of(module)
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(module, node, klass=None,
                                       parent=None)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(module, node)

    def _collect_class(self, module, node):
        qualname = "%s.%s" % (module.name, node.name)
        info = ClassInfo(module=module, qualname=qualname,
                         name=node.name, node=node)
        for base in node.bases:
            resolved = module.resolve_attribute(base)
            if resolved:
                info.bases.append(resolved)
        self.classes[qualname] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._collect_function(module, item, klass=qualname,
                                            parent=None)
                info.methods[item.name] = fn.qualname
            elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name):
                info.fields.append(item.target.id)
                self._note_field_type(module, info, item)

    def _note_field_type(self, module, info, item):
        """Dataclass-style ``attr: T = field(...)`` declarations."""
        annotation = module.resolve_attribute(item.annotation)
        if annotation:
            info.attr_types.setdefault(item.target.id,
                                       self._canonical_type(annotation))

    def _collect_function(self, module, node, klass, parent):
        scope = klass or module.name
        if parent:
            scope = parent
        qualname = "%s.%s" % (scope, node.name)
        fn = FunctionInfo(
            module=module, qualname=qualname, name=node.name, node=node,
            klass=klass, parent=parent,
            is_async=isinstance(node, ast.AsyncFunctionDef))
        self._register(fn)
        for child in walk_scope(node.body):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(module, child, klass=None,
                                       parent=qualname)
        return fn

    def _register(self, fn):
        self.functions[fn.qualname] = fn
        self.by_method_name.setdefault(fn.name, []).append(fn.qualname)

    def _globals_of(self, module):
        names = {}
        for node in module.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            kind = "mutable" if isinstance(
                value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                        ast.DictComp, ast.SetComp)) else "value"
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = kind
        return names

    # --- type inference ---------------------------------------------------------

    def _canonical_type(self, dotted):
        """Prefer the package-internal class qualname for a type name."""
        if dotted in self.classes:
            return dotted
        # "repro.service.jobs.JobRegistry" style references resolve as
        # they are; bare names match a unique class definition.
        candidates = [qualname for qualname, info in self.classes.items()
                      if info.name == dotted.rsplit(".", 1)[-1]
                      and (dotted == info.name
                           or dotted.endswith("." + info.name))]
        if len(candidates) == 1:
            return candidates[0]
        return dotted

    def _type_of_call(self, module, fn, node):
        """Dotted type of a call result, when the call constructs it."""
        dotted = module.resolve_attribute(node.func)
        if dotted:
            canonical = self._canonical_type(dotted)
            if canonical in self.classes:
                return canonical
            last = dotted.rsplit(".", 1)[-1]
            if last[:1].isupper():  # external constructor by convention
                return dotted
        return None

    def _infer_round(self):
        changed = False
        for fn in self.functions.values():
            if not fn.is_module_body:
                for param in fn.param_names():
                    inferred = self.param_types.get((fn.qualname,
                                                     param))
                    if inferred and param not in fn.local_types:
                        fn.local_types[param] = inferred
                        changed = True
            for node in walk_scope(fn.body):
                if isinstance(node, ast.Assign):
                    inferred = self._expr_type(fn, node.value)
                    if inferred:
                        for target in node.targets:
                            changed |= self._note_type(fn, target,
                                                       inferred)
                elif (isinstance(node, ast.AnnAssign)
                        and node.value is not None):
                    inferred = self._expr_type(fn, node.value)
                    if inferred:
                        changed |= self._note_type(fn, node.target,
                                                   inferred)
                elif (isinstance(node, ast.Return)
                        and node.value is not None
                        and fn.return_type is None):
                    inferred = self._expr_type(fn, node.value)
                    if inferred:
                        fn.return_type = inferred
                        changed = True
                if isinstance(node, ast.Call):
                    changed |= self._note_param_types(fn, node)
        return changed

    def _note_type(self, fn, target, inferred):
        if isinstance(target, ast.Name):
            if target.id not in fn.local_types:
                fn.local_types[target.id] = inferred
                return True
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and fn.klass in self.classes):
            attrs = self.classes[fn.klass].attr_types
            if target.attr not in attrs:
                attrs[target.attr] = inferred
                return True
        return False

    def _note_param_types(self, fn, node):
        """Argument types flow into the callee's parameter types."""
        targets, _external = self._resolve_callee(fn, node.func)
        changed = False
        for target in targets:
            callee = self.functions[target]
            params = callee.param_names()
            if callee.klass is not None and params:
                params = params[1:]  # bound self/cls
            for position, arg in enumerate(node.args):
                if position < len(params):
                    changed |= self._note_param(target,
                                                params[position],
                                                self._expr_type(fn, arg))
            for keyword in node.keywords:
                if keyword.arg in params:
                    changed |= self._note_param(
                        target, keyword.arg,
                        self._expr_type(fn, keyword.value))
        return changed

    def _note_param(self, qualname, param, inferred):
        if inferred and (qualname, param) not in self.param_types:
            self.param_types[(qualname, param)] = inferred
            return True
        return False

    def _expr_type(self, fn, expr):
        """Best-effort dotted type of an expression inside ``fn``."""
        if isinstance(expr, ast.Call):
            targets, _external = self._resolve_callee(fn, expr.func)
            for target in targets:
                returned = self.functions[target].return_type
                if returned:
                    return returned
            return self._type_of_call(fn.module, fn, expr)
        if isinstance(expr, ast.Name):
            return fn.local_types.get(expr.id)
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and fn.klass):
            return self._attr_type(fn.klass, expr.attr)
        if isinstance(expr, ast.Await):
            return self._expr_type(fn, expr.value)
        if isinstance(expr, ast.IfExp):
            return (self._expr_type(fn, expr.body)
                    or self._expr_type(fn, expr.orelse))
        return None

    def _attr_type(self, klass, attr):
        info = self.classes.get(klass)
        while info is not None:
            if attr in info.attr_types:
                return info.attr_types[attr]
            info = self._parent_class(info)
        return None

    def _parent_class(self, info):
        for base in info.bases:
            canonical = self._canonical_type(base)
            if canonical in self.classes:
                return self.classes[canonical]
        return None

    # --- call resolution --------------------------------------------------------

    def calls_of(self, qualname):
        """Every :class:`CallSite` in one function, resolved and cached."""
        if qualname not in self._calls:
            fn = self.functions[qualname]
            sites = []
            for node in walk_scope(fn.body):
                if isinstance(node, ast.Call):
                    sites.append(self.resolve_call(fn, node))
            sites.sort(key=lambda site: (site.node.lineno,
                                         site.node.col_offset))
            self._calls[qualname] = sites
        return self._calls[qualname]

    def resolve_call(self, fn, node):
        """Resolve one ``ast.Call`` to package functions and/or an
        external dotted name."""
        targets, external = self._resolve_callee(fn, node.func)
        return CallSite(node=node, targets=tuple(targets),
                        external=external)

    def _resolve_callee(self, fn, func):
        module = fn.module
        if isinstance(func, ast.Name):
            return self._resolve_bare_name(fn, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(fn, func)
        if isinstance(func, ast.Call):
            # Immediately-invoked call result: nothing to resolve.
            return [], None
        return [], None

    def _resolve_bare_name(self, fn, name):
        module = fn.module
        # A nested function defined in this scope shadows imports.
        nested = "%s.%s" % (fn.qualname, name)
        if nested in self.functions:
            return [nested], None
        local = "%s.%s" % (module.name, name)
        if local in self.functions:
            return [local], None
        if local in self.classes:
            return self._class_targets(local)
        dotted = module.resolve_name(name)
        if dotted:
            return self._resolve_dotted(dotted)
        return [], None

    def _resolve_attribute_call(self, fn, func):
        module = fn.module
        base = func
        while isinstance(base, ast.Attribute):
            base = base.value
        dotted = module.resolve_attribute(func)
        if dotted:
            targets, external = self._resolve_dotted(dotted)
            if targets:
                return targets, external
            # Only trust the dotted form when its root really is an
            # import; otherwise "state.note_success" would masquerade
            # as an external call and hide the receiver's type.
            if isinstance(base, ast.Name) and base.id in module.imports:
                return targets, external
        # self.method(...) / self.attr.method(...) / var.method(...)
        receiver_type = self._receiver_type(fn, func.value)
        if receiver_type:
            resolved = self._method_on(receiver_type, func.attr)
            if resolved:
                return resolved
            return [], "%s.%s" % (receiver_type, func.attr)
        # Unique method name across the package: good enough to build
        # reachability, never used to *exonerate* a call.
        candidates = [qualname
                      for qualname in self.by_method_name.get(func.attr, ())
                      if self.functions[qualname].klass is not None]
        if len(candidates) == 1:
            return [candidates[0]], None
        return [], None

    def _receiver_type(self, fn, value):
        if isinstance(value, ast.Name):
            if value.id == "self" and fn.klass:
                return fn.klass
            return fn.local_types.get(value.id)
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self" and fn.klass):
            return self._attr_type(fn.klass, value.attr)
        if isinstance(value, ast.Call):
            targets, _external = self._resolve_callee(fn, value.func)
            for target in targets:
                returned = self.functions[target].return_type
                if returned:
                    return returned
            inferred = self._type_of_call(fn.module, fn, value)
            if inferred:
                return inferred
        return None

    def _method_on(self, receiver_type, method):
        canonical = self._canonical_type(receiver_type)
        info = self.classes.get(canonical)
        while info is not None:
            if method in info.methods:
                return [info.methods[method]], None
            info = self._parent_class(info)
        return None

    def _class_targets(self, class_qualname):
        """Calling a class invokes ``__init__`` (and ``__post_init__``
        for dataclasses) — both matter for taint through constructors."""
        info = self.classes[class_qualname]
        targets = []
        for name in ("__init__", "__post_init__"):
            if name in info.methods:
                targets.append(info.methods[name])
        return targets, class_qualname

    def _resolve_dotted(self, dotted):
        """An import-resolved dotted name: package function, class, or
        external."""
        if dotted in self.functions:
            return [dotted], None
        if dotted in self.classes:
            return self._class_targets(dotted)
        # "repro.campaign.executor.shard_worker" — module attr form.
        head, _, tail = dotted.rpartition(".")
        if head in self.modules:
            qualified = "%s.%s" % (head, tail)
            if qualified in self.functions:
                return [qualified], None
            if qualified in self.classes:
                return self._class_targets(qualified)
        # "HttpResponse.json" / "repro.service.http.HttpResponse.json"
        # — a classmethod/static call qualified by the class itself.
        if head:
            canonical = self._canonical_type(head)
            if canonical in self.classes:
                resolved = self._method_on(canonical, tail)
                if resolved:
                    return resolved
        return [], dotted

    # --- reachability ------------------------------------------------------------

    def transitive_callees(self, roots):
        """All package functions reachable from ``roots`` (inclusive)."""
        seen = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for site in self.calls_of(current):
                for target in site.targets:
                    if target not in seen:
                        stack.append(target)
        return seen
