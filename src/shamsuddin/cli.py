"""Command-line front end.

Every subcommand reads one derivation (inline ``--deriv``, a file path, or
``-`` for stdin) and prints a human-readable report, or a single JSON object
with ``--json``.  The library verifies every witness and sample it returns
(commutation and det C != 0, exactly), so the CLI only prints them.

Exit codes: 0 success, 2 parse error, 3 semantic error (including input
whose parenthesised products exceed the parser's work budget), 4 verification
failure (a computed witness, sample or preimage failed its exact check, which
is a defect of the library, not of the input); with ``--exit-status`` a
boolean verdict maps true -> 0, false -> 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import (
    IsotropyCase,
    MzTag,
    is_locally_finite,
    is_simple,
    isotropy_describe_block,
    isotropy_is_trivial,
    isotropy_witness,
    mz_classify,
    preimage_bounded,
    sample_isotropy_element,
)
from .derivations import Derivation, apply_derivation
from .endos import affine_to_endo, commutes
from .linalg import VerificationError
from .textio import ParseError, SemanticError, format_endo, parse_derivation, parse_endo, parse_poly


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="shamsuddin", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", nargs="?", help="derivation file, or '-' for stdin")
        p.add_argument("--deriv", help="inline derivation text")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--exit-status",
            action="store_true",
            help="map a boolean verdict to the exit code (true -> 0, false -> 1)",
        )

    p = sub.add_parser("simple", help="decide simplicity, with per-block ODE witnesses")
    common(p)
    p = sub.add_parser("isotropy", help="decide triviality of the commuting automorphisms")
    common(p)
    p.add_argument("--witness", action="store_true", help="print a verified witness if nontrivial")
    p = sub.add_parser("describe", help="describe the commuting automorphisms of a single block")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled member (default 0)")
    p = sub.add_parser("locally-finite", help="decide local finiteness")
    common(p)
    p = sub.add_parser("mz", help="classify the image as a Mathieu-Zhao subspace")
    common(p)
    p = sub.add_parser("preimage", help="solve D(f) = target over a bounded monomial box")
    common(p)
    p.add_argument("--target", required=True, help="target polynomial")
    p.add_argument("--max-x-deg", type=int, default=8)
    p.add_argument("--max-y-deg", type=int, default=4)
    p = sub.add_parser("apply", help="apply the derivation to a polynomial")
    common(p)
    p.add_argument("--poly", required=True, help="polynomial to differentiate")
    p = sub.add_parser("commute", help="check whether an endomorphism commutes with D")
    common(p)
    p.add_argument("--endo", required=True, help="endomorphism file, or inline text")
    return top


#: parse_args keeps no state between calls, so one parser serves every request
_PARSER = _build_parser()


def _read_derivation(args: argparse.Namespace):
    if (args.deriv is None) == (args.path is None):
        raise SemanticError("need exactly one derivation source: a path or --deriv")
    if args.deriv is not None:
        text = args.deriv
    elif args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_derivation(text)


def _require_shamsuddin(d) -> Derivation:
    if not isinstance(d, Derivation):
        raise SemanticError("this command needs a Shamsuddin derivation (every b in K[x])")
    return d


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_simple(args):
    d = _require_shamsuddin(_read_derivation(args))
    verdict = is_simple(d)
    lines = [f"simple: {_bool(verdict.simple)}"]
    blocks_json = []
    for i, witness in verdict.per_block:
        blk = d.blocks[i]
        label = f"block {i + 1} (a={blk.a}, vars y{',y'.join(map(str, blk.var_indices))})"
        if witness is None:
            lines.append(f"{label}: simple")
            blocks_json.append({"block": i + 1, "a": str(blk.a), "simple": True, "witness": None})
        else:
            k, z = witness
            kstr = ", ".join(str(v) for v in k)
            lines.append(f"{label}: witness k=({kstr}), z={z}")
            blocks_json.append(
                {
                    "block": i + 1,
                    "a": str(blk.a),
                    "simple": False,
                    "witness": {"k": [str(v) for v in k], "z": str(z)},
                }
            )
    payload = {"command": "simple", "simple": verdict.simple, "blocks": blocks_json}
    return lines, payload, verdict.simple


def _cmd_isotropy(args):
    d = _require_shamsuddin(_read_derivation(args))
    rho = isotropy_witness(d) if args.witness else None
    trivial = rho is None if args.witness else isotropy_is_trivial(d)
    lines = [f"trivial: {_bool(trivial)}"]
    payload = {"command": "isotropy", "trivial": trivial, "witness": None}
    if args.witness:
        if rho is None:
            lines.append("witness: none (isotropy is trivial)")
        else:
            text = format_endo(affine_to_endo(rho))
            lines.append(f"witness: {text}")
            payload["witness"] = text
    return lines, payload, trivial


def _cmd_describe(args):
    d = _require_shamsuddin(_read_derivation(args))
    if len(d.blocks) != 1:
        raise SemanticError("describe needs a single-block derivation (one shared a)")
    blk = d.blocks[0]
    desc = isotropy_describe_block(blk.a, blk.bs)
    lines = [f"case: {desc.case.value}"]
    payload = {"command": "describe", "case": desc.case.value}
    lines.append("shift: fixed to 0" if desc.shift_forced_zero else "shift: free parameter c")
    payload["shift_free"] = not desc.shift_forced_zero
    if desc.case is IsotropyCase.A_ZERO:
        for t, h in enumerate(desc.h, start=1):
            lines.append(f"h{t} = {h}")
        lines.append(
            "members: x -> x + p, y_t -> h_t(x + p) + q_t with p, q free in the "
            "shifted variables y_t - h_t(x) and (x + p, q) invertible"
        )
        payload["h"] = [str(h) for h in desc.h]
    else:
        dims = [space.dim for space in desc.row_spaces(0)]
        for t, dim in enumerate(dims, start=1):
            lines.append(f"row {t}: solution space of dimension {dim} (C-row and g_{t})")
        lines.append("members: x -> x + c, y_t -> sum_j C[t][j] y_j + g_t(x), det C != 0")
        payload["row_dims"] = dims
    sample = sample_isotropy_element(desc, seed=args.seed)
    if sample is None:
        lines.append("sample: none (every draw was singular)")
        payload["sample"] = None
    else:
        text = format_endo(affine_to_endo(sample))
        lines.append(f"sample: {text}")
        payload["sample"] = text
    return lines, payload, None


def _cmd_locally_finite(args):
    d = _read_derivation(args)
    tri = d.to_triangular() if isinstance(d, Derivation) else d
    lf = is_locally_finite(tri)
    return (
        [f"locally_finite: {_bool(lf)}"],
        {"command": "locally-finite", "locally_finite": lf},
        lf,
    )


def _cmd_mz(args):
    d = _require_shamsuddin(_read_derivation(args))
    verdict = mz_classify(d)
    lines = [f"mz: {verdict.tag.value} ({verdict.reason})"]
    payload = {
        "command": "mz",
        "mz": verdict.tag.value,
        "reason": verdict.reason,
        "gamma": list(verdict.gamma) if verdict.gamma is not None else None,
    }
    if verdict.gamma is not None:
        lines.append(f"gamma: ({', '.join(map(str, verdict.gamma))})")
    return lines, payload, verdict.tag is MzTag.IS_MZ


def _cmd_preimage(args):
    d = _require_shamsuddin(_read_derivation(args))
    target = parse_poly(args.target, d.arity)
    f = preimage_bounded(d, target, args.max_x_deg, args.max_y_deg)
    if f is None:
        text = f"none within box (max_x_deg={args.max_x_deg}, max_y_deg={args.max_y_deg})"
        lines = [f"preimage: {text}"]
        payload = {"command": "preimage", "found": False, "preimage": None}
    else:
        lines = [f"preimage: {f}"]
        payload = {"command": "preimage", "found": True, "preimage": str(f)}
    return lines, payload, f is not None


def _cmd_apply(args):
    d = _read_derivation(args)
    poly = parse_poly(args.poly, d.arity)
    result = apply_derivation(d, poly)
    return [f"result: {result}"], {"command": "apply", "result": str(result)}, None


def _cmd_commute(args):
    d = _read_derivation(args)
    text = args.endo
    if os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            text = fh.read()
    rho = parse_endo(text, d.arity)
    ok = commutes(rho, d)
    return [f"commutes: {_bool(ok)}"], {"command": "commute", "commutes": ok}, ok


_COMMANDS = {
    "simple": _cmd_simple,
    "isotropy": _cmd_isotropy,
    "describe": _cmd_describe,
    "locally-finite": _cmd_locally_finite,
    "mz": _cmd_mz,
    "preimage": _cmd_preimage,
    "apply": _cmd_apply,
    "commute": _cmd_commute,
}


def run(argv: list[str], out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        lines, payload, verdict = _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 2
    except (SemanticError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=err)
        return 4
    if args.json:
        print(json.dumps(payload), file=out)
    else:
        for line in lines:
            print(line, file=out)
    if args.exit_status and verdict is not None:
        return 0 if verdict else 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
