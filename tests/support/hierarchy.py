"""Call resolution through a precomputed override table: the reference the
subtype walk of `udgscan.udg.calls.resolve_call_site` is checked against,
and a generator of random class hierarchies to check it on.

`method_overrides` is the table `build_type_hierarchy` once built by walking
each class's full ancestor list; `resolve_call_site` is the resolver that
read it.  Both are kept as they were, apart from the table being passed in.
"""

from __future__ import annotations

import random

from udgscan.frontend.model import CallSite, FunctionDecl, RepoModel, TypeHierarchy

Overrides = dict[tuple[str, str, int], list[tuple[str, str]]]


def method_overrides(model: RepoModel, hierarchy: TypeHierarchy) -> Overrides:
    """(class fqn, method name, arity) -> list of (subtype fqn, function id)
    overrides."""
    overrides: Overrides = {}
    for cls in sorted(model.classes.values(), key=lambda c: c.name):
        ancestors = hierarchy.supertypes_of(cls.name)
        for fid in cls.methods:
            func = model.functions[fid]
            for anc in ancestors:
                for base in model.find_methods(anc, func.name, func.arity):
                    if base.param_types == func.param_types:
                        key = (anc, func.name, func.arity)
                        overrides.setdefault(key, []).append((cls.name, fid))
    return overrides


def resolve_call_site(
    model: RepoModel, hierarchy: TypeHierarchy, overrides: Overrides, caller: FunctionDecl, site: CallSite
) -> list[FunctionDecl]:
    """The in-repo targets of a call site.  Type names resolve as written in
    the caller's file."""
    if site.is_constructor:
        cls = model.resolve_class(site.name, caller.file)
        return [] if cls is None else model.find_methods(cls.name, cls.simple_name, site.arity)

    def declared_in(type_name: str) -> tuple[str, str, list[FunctionDecl]] | None:
        """(class, declaring class, methods): the nearest of the class and
        its supertypes that declares the site's name and arity."""
        cls = model.resolve_class(type_name, caller.file)
        if cls is not None:
            for cname in [cls.name, *hierarchy.supertypes_of(cls.name)]:
                found = model.find_methods(cname, site.name, site.arity)
                if found:
                    return cls.name, cname, found
        return None

    def dispatch_targets(static_type: str) -> list[FunctionDecl]:
        declared = declared_in(static_type)
        if declared is None:
            return []
        cls_name, definer_class, base_methods = declared
        targets: list[FunctionDecl] = list(base_methods)
        allowed = {cls_name, *hierarchy.subtypes_of(cls_name)}
        for sub_class, fid in overrides.get((definer_class, site.name, site.arity), []):
            if sub_class in allowed:
                func = model.functions[fid]
                if func not in targets:
                    targets.append(func)
        return targets

    if site.receiver and site.receiver != "this" and site.receiver_type:
        return dispatch_targets(site.receiver_type)

    # A method called on `new T(...)` is the one `T` declares or inherits.
    if site.receiver is None and site.receiver_type:
        declared = declared_in(site.receiver_type)
        return [] if declared is None else declared[2]

    if site.receiver == "this" or (site.receiver is None and "." not in site.chain):
        return dispatch_targets(caller.class_name)

    # A method called on a class literal, `X.class.m(...)`, is a method of
    # `Class`, and one called on a call's result, `X.f().m(...)`, a method of
    # a type the parser does not know: neither is one of `X`.
    if ".class." in site.chain or "()." in site.chain:
        return []

    # Class-qualified call: X.m(...) resolved statically.
    declared = declared_in(site.chain.split(".")[0])
    return [] if declared is None else declared[2]


EXTERNAL_CLASSES = ("HashMap", "Thread")
EXTERNAL_INTERFACES = ("Runnable", "Serializable")
PARAM_TYPES = ("int", "String")
ARGUMENTS = {"int": "1", "String": '"s"'}


def random_hierarchy(seed: int, size: int = 12) -> dict[str, str]:
    """Two files of one package: interfaces extending earlier interfaces,
    abstract and concrete classes extending an earlier class and
    implementing interfaces (so diamonds run through interfaces), some with
    an external supertype, a nested class, and methods named `m` or `n` of
    arity 0 to 2 whose overloads of one arity differ in parameter types.  A
    `Driver` class calls every method name and arity on a parameter of each
    type, on `this`, unqualified, on a `new` object and class-qualified.
    """
    rng = random.Random(seed)
    interfaces: list[str] = []
    classes: list[str] = []
    decls: list[list[str]] = [[], []]

    def signatures() -> list[tuple[str, tuple[str, ...]]]:
        sigs = set()
        for _ in range(rng.randint(0, 3)):
            arity = rng.randint(0, 2)
            sigs.add((rng.choice("mn"), tuple(rng.choice(PARAM_TYPES) for _ in range(arity))))
        return sorted(sigs)

    def method(name: str, types: tuple[str, ...], abstract: bool, modifier: str = "") -> str:
        params = ", ".join(f"{t} a{i}" for i, t in enumerate(types))
        head = f"    {modifier}int {name}({params})"
        return head + ";" if abstract else head + " {\n        return 1;\n    }"

    for i in range(size):
        out = decls[rng.randint(0, 1)]
        if rng.random() < 0.35:
            name = f"I{i}"
            supers = rng.sample(interfaces, min(len(interfaces), rng.randint(0, 2)))
            if rng.random() < 0.15:
                supers.append(rng.choice(EXTERNAL_INTERFACES))
            head = f"interface {name}" + (f" extends {', '.join(supers)}" if supers else "")
            body = [method(n, t, abstract=True) for n, t in signatures()]
            interfaces.append(name)
        else:
            name = f"C{i}"
            abstract = rng.random() < 0.3
            head = ("abstract " if abstract else "") + f"class {name}"
            if classes and rng.random() < 0.7:
                head += f" extends {rng.choice(classes)}"
            elif rng.random() < 0.2:
                head += f" extends {rng.choice(EXTERNAL_CLASSES)}"
            impls = rng.sample(interfaces, min(len(interfaces), rng.randint(0, 2)))
            if rng.random() < 0.15:
                impls.append(rng.choice(EXTERNAL_INTERFACES))
            if impls:
                head += f" implements {', '.join(impls)}"
            body = []
            for n, t in signatures():
                is_abstract = abstract and rng.random() < 0.5
                body.append(method(n, t, is_abstract, "abstract " if is_abstract else ""))
            for n, t in signatures()[:1]:
                body.append(f"    int call{len(body)}() {{\n        return {_call('this.' + n, t)};\n    }}")
                body.append(f"    int bare{len(body)}() {{\n        return {_call(n, t)};\n    }}")
            if rng.random() < 0.25:
                inner = f"Inner{i}"
                parent = rng.choice(classes) if classes else name
                inner_body = [method(n, t, abstract=False) for n, t in signatures()]
                body.append(f"    static class {inner} extends {parent} {{\n" + "\n".join(inner_body) + "\n    }")
                classes.append(f"{name}.{inner}")
            classes.append(name)
        out.append(f"{head} {{\n" + "\n".join(body) + "\n}")

    types = interfaces + classes
    calls = []
    for k, t in enumerate(types):
        for name in "mn":
            for types_ in [(), ("int",), ("String",), ("int", "String"), ("String", "String")]:
                calls.append(f"        r = r + v{k}.{_call(name, types_)};")
    concrete = [c for c in classes if "Inner" not in c]
    for c in concrete[:3]:
        calls.append(f"        r = r + new {c}().{_call('m', ('int',))};")
        calls.append(f"        r = r + {c}.{_call('n', ())};")
    params = ", ".join(f"{t} v{k}" for k, t in enumerate(types))
    driver = f"class Driver {{\n    int drive({params}) {{\n        int r = 0;\n" + "\n".join(calls)
    driver += "\n        return r;\n    }\n}"
    decls[1].append(driver)
    return {f"p/H{i}.java": "package p;\n" + "\n".join(d) + "\n" for i, d in enumerate(decls)}


def _call(name: str, types: tuple[str, ...]) -> str:
    return f"{name}({', '.join(ARGUMENTS[t] for t in types)})"
