"""Command-line interface: JSON in, JSON (or text) out, deterministic bytes.

Exit codes: 0 all checks passed, 1 at least one check failed (including a
violated construction hypothesis), 2 usage or input errors.

Every command is one entry of `_COMMANDS`, its handler and its options, and
that table drives the reader, the parser, decoding and the dispatch.  A
well-formed command line is read straight off the table (`_read_argv`), so a
command builds no parser and imports no argparse; anything else (help, `--`,
abbreviated or repeated options, bad or missing values) goes to the argparse
parser built from the same table, which prints the help, usage and errors.
What each file option holds is one entry of `_FILES`, the same in every
command: `run` decodes the file options of a command in the order it lists
them, before its handler runs, so a handler receives values.  Scalar
options (`--mu`, `--lambda`, `--grid`, ...) stay the strings given, as the
provenance of a construction prints them.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import io_json
from .algebras import adjoint_bimodule, check_algebra
from .catalog import catalog_algebra, catalog_names, catalog_solutions, verify_catalog
from .constructions import (
    extract_rb_pair,
    extracted_weight_branch,
    lift_o_operator,
    semidirect_solutions,
    solutions_from_rb,
)
from .dendriform import check_dendriform, dendriform_solutions, unital_extension
from .errors import PreconditionViolated, YbeError
from .frobenius import frobenius_from_form, induced_operators, rb_bridge_suite
from .linalg import scalar_str
from .operators import (
    WeightOp,
    _defect_witness,
    _holds,
    _invariant_operator_suite,
    _o_operator,
    _rota_baxter,
    operator_form_suite,
)
from .report import CheckReport
from .ybe import (
    YbeInstance,
    _residual_witness,
    extended_symmetrizer,
    grid_enumerate,
    invariant_symmetric_basis,
    is_invariant,
    is_solution,
    nhacybe_residual,
    opposite_residual,
)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(obj, fmt):
    if fmt == "json":
        print(io_json.dumps(obj))
    else:
        _emit_text(obj)


def _emit_text(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict) and "check" in obj and "passed" in obj:
        print(f"{pad}{'PASS' if obj['passed'] else 'FAIL'} {obj['check']}")
        if not obj["passed"] and obj.get("witness") is not None:
            print(f"{pad}  witness: {io_json.dumps(obj['witness'])}")
        for sub in obj.get("details", {}).get("subchecks", []):
            _emit_text(sub, indent + 1)
    else:
        print(f"{pad}{io_json.dumps(obj)}")


def _report_exit(rep: CheckReport, fmt) -> int:
    _emit(rep.to_json(), fmt)
    return 0 if rep.passed else 1


# The command table: (group, command) -> (handler, options), in the order
# `ybekit --help` lists them, each option a (flag, add_argument keywords)
# pair.  It drives the reader, the parser, decoding and the dispatch.
_COMMANDS: dict[tuple[str, str], tuple] = {}


def _opt(flag, **kw):
    return flag, kw


_REPORT = _opt("--report", choices=("json", "text"), default="json")


def _command(group, cmd, *options):
    """Register the decorated function as the handler of `ybekit group cmd`.
    A bare flag in options is a required option that takes a value; a pair
    (flag, keywords) goes to `add_argument` as it is.  Every command also
    takes `--report`."""
    options = [_opt(o, required=True) if isinstance(o, str) else o for o in options]

    def register(handler):
        _COMMANDS[(group, cmd)] = handler, (*options, _REPORT)
        return handler
    return register


_LAMBDA = _opt("--lambda", dest="lam", required=True)
_MUS = _opt("--mu", action="append")

# What each file option holds: its decoder, given the file's JSON and the
# namespace, in which every file option listed before it is decoded already.
# Each decoder is looked up on io_json at the call.
_FILES = {
    "--algebra": lambda d, ns: io_json.decode_algebra(d),
    "--r": lambda d, ns: io_json.decode_tensor2(d),
    "--s": lambda d, ns: io_json.decode_tensor2(d),
    "--p": lambda d, ns: io_json.decode_linear_map(d),
    "--alpha": lambda d, ns: io_json.decode_linear_map(d),
    "--beta": lambda d, ns: io_json.decode_linear_map(d),
    "--module": lambda d, ns: io_json.decode_bimodule(d, ns.algebra),
    "--eps": lambda d, ns: io_json.decode_augmentation(d, ns.algebra),
    "--gram": lambda d, ns: frobenius_from_form(ns.algebra, io_json.decode_form(d, ns.algebra)),
    "--dendriform": lambda d, ns: io_json.decode_dendriform(d),
}


def build_parser(parsers: dict | None = None):
    """The argparse parser of every command.  Only argument lists that
    `_read_argv` refuses reach it, so it prints the help, usage and errors,
    and parses what is well formed but not exactly spelled (abbreviations,
    repeated options, `--`).  The parser of each command goes into parsers,
    when given, under its (group, command) key."""
    import argparse
    top = argparse.ArgumentParser(prog="ybekit")
    groups = top.add_subparsers(dest="group", required=True)
    cmds = {}
    parsers = {} if parsers is None else parsers
    for (g, c), (_, options) in _COMMANDS.items():
        if g not in cmds:
            cmds[g] = groups.add_parser(g).add_subparsers(dest="cmd", required=True)
        p = parsers[g, c] = cmds[g].add_parser(c)
        for flag, kw in options:
            p.add_argument(flag, **kw)
    return top


def _dest(flag, kw) -> str:
    return kw.get("dest", flag[2:].replace("-", "_"))


def _parse(argv):
    """argparse's namespace for argv.  argparse drops a `--` given as a value,
    even after `=`, and leaves an empty list in place of the string
    (`--algebra=--`): that is refused as a missing value, a usage error."""
    parsers = {}
    ns = build_parser(parsers).parse_args(argv)
    for flag, kw in _COMMANDS[ns.group, ns.cmd][1]:
        value = getattr(ns, _dest(flag, kw))
        if [] in (value if kw.get("action") == "append" and value else [value]):
            parsers[ns.group, ns.cmd].error(f"argument {flag}: expected one argument")
    return ns


@_command("algebra", "check", "--algebra")
def _cmd_algebra_check(ns) -> int:
    return _report_exit(check_algebra(ns.algebra), ns.report)


@_command("ybe", "check", "--algebra", "--r", _opt("--mu", default="0"),
          _opt("--opposite", action="store_true"))
def _cmd_ybe_check(ns) -> int:
    inst = YbeInstance(ns.algebra, io_json.parse_scalar(ns.mu))
    res = opposite_residual(inst, ns.r) if ns.opposite else nhacybe_residual(inst, ns.r)
    rep = CheckReport("opposite-equation" if ns.opposite else "tensor-equation",
                      res.is_zero(), witness=_residual_witness(res),
                      details={"mu": scalar_str(inst.mu)})
    return _report_exit(rep, ns.report)


@_command("ybe", "symmetrizer", "--algebra", "--r", _opt("--mu", default="0"))
def _cmd_ybe_symmetrizer(ns) -> int:
    sbar = extended_symmetrizer(YbeInstance(ns.algebra, io_json.parse_scalar(ns.mu)), ns.r)
    inv = is_invariant(ns.algebra, sbar)
    _emit({"symmetrizer": io_json.encode_tensor2(sbar),
           "invariant": inv.passed}, ns.report)
    return 0


@_command("ybe", "invariant-basis", "--algebra")
def _cmd_ybe_invariant_basis(ns) -> int:
    basis = invariant_symmetric_basis(ns.algebra)
    _emit({"dimension": len(basis),
           "basis": [io_json.encode_tensor2(t) for t in basis]}, ns.report)
    return 0


@_command("ybe", "enumerate", "--algebra", _opt("--mu", default="1"),
          _opt("--grid", help="comma-separated values; default 0,mu"),
          _opt("--budget", type=int, default=1 << 25,
               help="maximum search nodes (values tried at one entry of r)"))
def _cmd_ybe_enumerate(ns) -> int:
    mu = io_json.parse_scalar(ns.mu)
    inst = YbeInstance(ns.algebra, mu)
    values = ((0, mu) if ns.grid is None
              else tuple(io_json.parse_scalar(v) for v in ns.grid.split(",")))
    for sol in grid_enumerate(inst, values, budget=ns.budget):
        print(io_json.dumps(io_json.encode_tensor2(sol)))
    return 0


@_command("op", "rb-check", "--algebra", "--p", _opt("--lambda", dest="lam", default="0"))
def _cmd_op_rb_check(ns) -> int:
    witness = _defect_witness(*_rota_baxter(ns.algebra, ns.p, io_json.parse_scalar(ns.lam)))
    rep = CheckReport("rota-baxter", witness is None, witness=witness,
                      details={"weight": ns.lam})
    return _report_exit(rep, ns.report)


@_command("op", "o-check", "--algebra", "--alpha",
          _opt("--module", help="bimodule JSON; adjoint if omitted"))
def _cmd_op_o_check(ns) -> int:
    module = adjoint_bimodule(ns.algebra) if ns.module is None else ns.module
    witness = _defect_witness(*_o_operator(ns.algebra, module, ns.alpha, WeightOp.zero()))
    return _report_exit(CheckReport("weight-zero-operator", witness is None, witness=witness),
                        ns.report)


@_command("op", "suite", "--algebra", "--r", _MUS)
def _cmd_op_suite(ns) -> int:
    reports = []
    for mu in (ns.mu or ["1"]):
        inst = YbeInstance(ns.algebra, io_json.parse_scalar(mu))
        form = operator_form_suite(inst, ns.r)
        rep = _invariant_operator_suite(inst, ns.r, form.details["verdicts"]["tensor_equation"])
        reports += [form] if rep is None else [form, rep]
    ok = all(rep.passed for rep in reports)
    _emit({"check": "operator-suites", "passed": ok,
           "details": {"subchecks": [rep.to_json() for rep in reports]}},
          ns.report)
    return 0 if ok else 1


@_command("frobenius", "build", "--algebra", "--gram")
def _cmd_frobenius_build(ns) -> int:
    _emit({"phi": io_json.encode_tensor2(ns.gram.phi),
           "phi_sharp": io_json.encode_linear_map(ns.gram.phi_sharp)},
          ns.report)
    return 0


@_command("frobenius", "pr", "--algebra", "--gram", "--r")
def _cmd_frobenius_pr(ns) -> int:
    p, pt = induced_operators(ns.gram, ns.r)
    _emit({"p": io_json.encode_linear_map(p),
           "pt": io_json.encode_linear_map(pt)}, ns.report)
    return 0


@_command("frobenius", "bridge", "--algebra", "--gram", "--r", "--mu", _LAMBDA)
def _cmd_frobenius_bridge(ns) -> int:
    rep = rb_bridge_suite(ns.gram, io_json.parse_scalar(ns.mu), io_json.parse_scalar(ns.lam),
                          ns.r)
    return _report_exit(rep, ns.report)


def _provenance(kind, ns, fields):
    return {"construction": kind,
            "inputs": {k: getattr(ns, k) for k in fields}}


def _emit_solutions(out, ns, kind, **extra) -> int:
    """The algebra and the two solutions a construction built, each checked."""
    inst = YbeInstance(out.algebra, out.mu)
    _emit({"algebra": io_json.encode_algebra(out.algebra),
           "r1": io_json.encode_tensor2(out.r1),
           "r2": io_json.encode_tensor2(out.r2), **extra,
           "verified": is_solution(inst, out.r1) and is_solution(inst, out.r2),
           "provenance": _provenance(kind, ns, ("lam", "mu"))}, ns.report)
    return 0


@_command("construct", "from-rb", "--algebra", "--s", "--p", _LAMBDA, "--mu")
def _cmd_construct_from_rb(ns) -> int:
    r1, r2 = solutions_from_rb(ns.algebra, ns.s, ns.p, io_json.parse_scalar(ns.lam),
                               io_json.parse_scalar(ns.mu))
    _emit({"r1": io_json.encode_tensor2(r1),
           "r2": io_json.encode_tensor2(r2),
           "provenance": _provenance("from-rb", ns, ("lam", "mu"))},
          ns.report)
    return 0


@_command("construct", "lift", "--algebra", "--module", "--alpha", _LAMBDA)
def _cmd_construct_lift(ns) -> int:
    lam = io_json.parse_scalar(ns.lam)
    lifted = lift_o_operator(ns.algebra, ns.module, ns.alpha, lam)
    _emit({"algebra": io_json.encode_algebra(lifted.algebra),
           "hat": io_json.encode_linear_map(lifted.hat),
           "rota_baxter": _holds(*_rota_baxter(lifted.algebra, lifted.hat, lam)),
           "provenance": _provenance("lift", ns, ("lam",))}, ns.report)
    return 0


@_command("construct", "semidirect", "--algebra", "--module", "--alpha", "--beta",
          _LAMBDA, "--mu")
def _cmd_construct_semidirect(ns) -> int:
    out = semidirect_solutions(ns.algebra, ns.module, ns.alpha, ns.beta,
                               io_json.parse_scalar(ns.lam), io_json.parse_scalar(ns.mu))
    return _emit_solutions(out, ns, "semidirect", s=io_json.encode_tensor2(out.s))


@_command("construct", "unitize-extract", "--algebra", "--eps", "--r", "--mu")
def _cmd_construct_unitize_extract(ns) -> int:
    a, aug, r = ns.algebra, ns.eps, ns.r
    mu = io_json.parse_scalar(ns.mu)
    p, pp = extract_rb_pair(a, aug, r)
    inst = YbeInstance(a, mu)
    branch = extracted_weight_branch(inst, aug, r)
    out = {"p": io_json.encode_linear_map(p),
           "p_prime": io_json.encode_linear_map(pp),
           "weight_branch": None if branch is None else scalar_str(branch),
           "provenance": _provenance("unitize-extract", ns, ("mu",))}
    if branch is not None:
        out["rota_baxter"] = (_holds(*_rota_baxter(a, p, branch))
                              and _holds(*_rota_baxter(a, pp, branch)))
    _emit(out, ns.report)
    return 0


@_command("dendriform", "check", "--dendriform")
def _cmd_dendriform_check(ns) -> int:
    return _report_exit(check_dendriform(ns.dendriform), ns.report)


@_command("dendriform", "build", "--dendriform", "--beta", _LAMBDA, "--mu")
def _cmd_dendriform_build(ns) -> int:
    _, ud = unital_extension(ns.dendriform)
    out = dendriform_solutions(ud, ns.beta, io_json.parse_scalar(ns.lam),
                               io_json.parse_scalar(ns.mu))
    return _emit_solutions(out, ns, "dendriform")


@_command("catalog", "list")
def _cmd_catalog_list(ns) -> int:
    _emit({"names": list(catalog_names())}, ns.report)
    return 0


@_command("catalog", "export", "--name", _opt("--mu", default="1"))
def _cmd_catalog_export(ns) -> int:
    entry = catalog_algebra(ns.name)
    mu = io_json.parse_scalar(ns.mu)
    out = {
        "name": entry.name,
        "algebra": io_json.encode_algebra(entry.algebra),
        "augmentations": [io_json.encode_augmentation(a)
                          for a in entry.augmentations],
        "forms": {k: io_json.encode_form(f.form)
                  for k, f in sorted(entry.forms.items())},
        "invariant_dimension": entry.inv_dim,
        "solutions": [
            {"name": f.name,
             "tensor": io_json.encode_tensor2(f.tensor(mu)),
             "symmetrizer": io_json.encode_tensor2(f.sbar_tensor(mu)),
             "weight": scalar_str(f.weight_sign * mu),
             "form": f.form,
             "operator": io_json.encode_linear_map(f.q_map(mu))}
            for f in entry.families],
        "notes": list(entry.notes),
    }
    if entry.families:
        out["solution_count"] = len(catalog_solutions(ns.name, mu))
    _emit(out, ns.report)
    return 0


@_command("catalog", "verify", "--name", _MUS, _opt("--no-grid", action="store_true"))
def _cmd_catalog_verify(ns) -> int:
    mus = [io_json.parse_scalar(m) for m in (ns.mu or ["1"])]
    rep = verify_catalog(ns.name, mus, grid=not ns.no_grid)
    return _report_exit(rep, ns.report)


_VALUE_FLAGS = ("--mu", "--lambda", "--grid")


def _join_negative_values(argv):
    """Fold `--mu -3/5` into `--mu=-3/5` so that neither the reader nor
    argparse reads the value as an option string."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _read_argv(argv):
    """The namespace argparse would return for `ybekit group cmd` and
    exactly spelled options of that command, each once (but `--mu` of
    `op suite` and `catalog verify`) and with a valid value, the required
    ones all present.  None for any other list: help, `--` (also as a
    value), abbreviations, empty values and a value of its own that starts
    with `-`, which argparse mostly reads as an option."""
    if tuple(argv[:2]) not in _COMMANDS:
        return None
    options = dict(_COMMANDS[argv[0], argv[1]][1])
    given = {}
    tokens = iter(argv[2:])
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        kw = options.get(flag)
        if kw is None or flag in given and kw.get("action") != "append":
            return None
        if kw.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "")
                if value.startswith("-"):
                    return None
            if value in ("", "--"):  # argparse drops a "--" value, even after "="
                return None
            try:
                value = kw.get("type", str)(value)
            except (TypeError, ValueError):
                return None
            if value not in kw.get("choices", (value,)):
                return None
            if kw.get("action") == "append":
                value = given.get(flag, kw.get("default") or []) + [value]
        given[flag] = value
    ns = {"group": argv[0], "cmd": argv[1]}
    for flag, kw in options.items():
        if kw.get("required") and flag not in given:
            return None
        default = kw.get("default", False if kw.get("action") == "store_true" else None)
        ns[_dest(flag, kw)] = given.get(flag, default)
    return SimpleNamespace(**ns)


def run(argv) -> int:
    argv = _join_negative_values(list(argv))
    ns = _read_argv(argv)
    if ns is None:
        try:
            ns = _parse(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
    handler, options = _COMMANDS[ns.group, ns.cmd]
    try:
        for flag, kw in options:
            dest = _dest(flag, kw)
            path = getattr(ns, dest)
            if flag in _FILES and path is not None:
                setattr(ns, dest, _FILES[flag](_load(path), ns))
        return handler(ns)
    except PreconditionViolated as exc:
        print(io_json.dumps({"error": "precondition-violated",
                             "equation": exc.equation,
                             "witness": exc.witness}), file=sys.stderr)
        return 1
    except (YbeError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
