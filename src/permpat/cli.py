"""Command-line surface: detection, counting, reductions, verification.

Reports are single JSON documents on stdout by default (``--format plain``
for line output); diagnostics go to stderr.  Exit codes: 0 success, 1
verification or expectation failure, 2 usage/parse error.  Permutation
arguments are inline one-line notation, or ``@path`` to read from a file.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time
from fractions import Fraction
from typing import Iterator

import click

from permpat import gap, matching, psi
from permpat.core import Permutation

PARSE_ERROR = 2
CHECK_FAILED = 1


def _load_permutation(value: str) -> Permutation:
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            value = fh.read()
    return Permutation.parse(value)


def _parse_epsilon(value: str) -> Fraction:
    """P/Q or a decimal, strictly between 0 and 1/2.

    A decimal exponent is bounded before Fraction expands it into a power
    of ten: the numerator and the denominator have at most len(mantissa) +
    |exponent| digits, which must stay within Python's int-to-str limit.
    """
    mantissa, marker, exponent = value.lower().partition("e")
    if marker:
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        try:
            too_long = abs(int(exponent)) + len(mantissa) > limit
        except ValueError:  # not a decimal exponent: Fraction reports the literal
            too_long = False
        if too_long:
            raise ValueError(f"epsilon's decimal exponent would give it more than {limit} digits")
    try:
        eps = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {value!r} has a zero denominator") from None
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    return eps


def _parse_big_int(value: str) -> int:
    """Plain decimal, or BASE^EXP shorthand for the large bound checks.

    BASE^EXP is refused before it is computed when the power could exceed
    gap.POWER_BIT_BUDGET bits.
    """
    if "^" in value:
        base, exp = (int(part) for part in value.split("^", 1))
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        gap.require_power_within_budget(base, exp)
        return base**exp
    return int(value)


def _decimal(value: int, name: str) -> str:
    """str(value); past Python's int-to-str digit limit, a ValueError that
    names the value and its size."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(
            f"{name} has {gap._decimal_digits(value)} decimal digits, over the"
            f" {sys.get_int_max_str_digits()}-digit output limit"
        ) from None


def _emit(command: str, inputs: dict, result: dict, started: float, fmt: str) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    if fmt == "json":
        click.echo(json.dumps(report))
        return
    click.echo(f"command: {command}")
    for key, val in inputs.items():
        click.echo(f"  {key}: {val}")
    for key, val in result.items():
        click.echo(f"{key}: {val}")


@contextlib.contextmanager
def _usage_errors() -> Iterator[None]:
    """Report a ValueError or OSError raised inside as one stderr line, exit 2."""
    try:
        yield
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(PARSE_ERROR)


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "plain"]), default="json",
    help="Report format on stdout.",
)


@click.group()
def main() -> None:
    """Permutation pattern toolkit: detection, counting, and reductions."""


@main.command()
@click.option("--pattern", required=True, help="Pattern permutation (inline or @file).")
@click.option("--text", required=True, help="Text permutation (inline or @file).")
@click.option("--left-aligned", is_flag=True, help="Require the copy to use the first text position.")
@click.option("--expect", type=click.Choice(["yes", "no"]), default=None,
              help="Exit nonzero when the verdict differs.")
@_format_option
def detect(pattern: str, text: str, left_aligned: bool, expect: str | None, fmt: str) -> None:
    """Decide whether the text contains the pattern."""
    started = time.perf_counter()
    with _usage_errors():
        pi = _load_permutation(pattern)
        tau = _load_permutation(text)
        if left_aligned:
            verdict = matching.contains_left_aligned(pi, tau)
        else:
            verdict = matching.contains(pi, tau)
    _emit(
        "detect",
        {"pattern": pi.to_text(), "text": tau.to_text(), "left_aligned": left_aligned},
        {"contains": verdict},
        started,
        fmt,
    )
    if expect is not None and verdict != (expect == "yes"):
        click.echo(f"expectation failed: expected {expect}", err=True)
        sys.exit(CHECK_FAILED)


@main.command()
@click.option("--pattern", default=None, help="Pattern permutation (unused for --mode inversions).")
@click.option("--text", required=True, help="Text permutation (inline or @file).")
@click.option("--mode", type=click.Choice(["exact", "left", "inversions", "approx", "naive"]),
              default="exact")
@_format_option
def count(pattern: str | None, text: str, mode: str, fmt: str) -> None:
    """Count pattern copies (exact, left-aligned, inversions, approximate)."""
    started = time.perf_counter()
    if mode != "inversions" and pattern is None:
        raise click.UsageError("--pattern is required for this mode")
    with _usage_errors():
        tau = _load_permutation(text)
        inputs: dict = {"text": tau.to_text(), "mode": mode}
        if mode == "inversions":
            result: dict = {"count": str(matching.count_inversions(tau))}
        else:
            pi = _load_permutation(pattern)
            inputs["pattern"] = pi.to_text()
            if mode == "exact":
                result = {"count": str(matching.count_copies(pi, tau))}
            elif mode == "naive":
                result = {"count": str(matching.count_copies_naive(pi, tau))}
            elif mode == "approx":
                result = {"estimate": _decimal(matching.approx_count(pi, tau), "estimate")}
            else:
                direct = matching.count_left_aligned(pi, tau)
                diff = matching.count_left_aligned_by_difference(pi, tau)
                result = {
                    "direct": str(direct),
                    "difference": str(diff),
                    "agree": direct == diff,
                }
    _emit("count", inputs, result, started, fmt)
    if mode == "left" and not result["agree"]:
        click.echo("left-aligned counts disagree", err=True)
        sys.exit(CHECK_FAILED)


@main.group(name="psi")
def psi_group() -> None:
    """Reduction from partitioned subgraph isomorphism."""


def _load_instance(path: str) -> psi.PsiInstance:
    """Read a PSI instance file; any malformed document is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return psi.PsiInstance.from_json(text)
    except (TypeError, IndexError, KeyError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed instance: {type(exc).__name__}: {exc}") from exc


@psi_group.command(name="build")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@_format_option
def psi_build(instance_file: str, fmt: str) -> None:
    """Build and dump the labeled gadget for an instance file."""
    started = time.perf_counter()
    with _usage_errors():
        instance = _load_instance(instance_file)
        pattern_len = psi.pattern_length(instance.g)
        if pattern_len > gap.DEFAULT_MAX_TEXT_LEN:
            raise ValueError(
                f"instance too large: the gadget pattern would have {pattern_len} elements,"
                f" over {gap.DEFAULT_MAX_TEXT_LEN}"
            )
        gadget = psi.reduce_psi(instance)
    _emit("psi build", {"instance": instance_file}, gadget.to_json_obj(), started, fmt)


@psi_group.command(name="verify")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-text-len", type=int, default=psi.DEFAULT_ORACLE_TEXT_CAP,
              help="Reject instances whose gadget text is longer than this.")
@_format_option
def psi_verify(instance_file: str, max_text_len: int, fmt: str) -> None:
    """Run both oracles on an instance and compare."""
    started = time.perf_counter()
    with _usage_errors():
        instance = _load_instance(instance_file)
        report = psi.verify_reduction(instance, max_text_len=max_text_len)
    _emit("psi verify", {"instance": instance_file}, report.to_json_obj(), started, fmt)
    if not report.agree:
        click.echo("oracle disagreement", err=True)
        sys.exit(CHECK_FAILED)


@main.group(name="gap")
def gap_group() -> None:
    """Gap-producing inflation of left-aligned detection instances."""


@gap_group.command(name="build")
@click.option("--pattern", required=True)
@click.option("--text", required=True)
@click.option("--epsilon", required=True, help="Rational P/Q with 0 < P/Q < 1/2.")
@click.option("--cap", type=int, default=None, help="Safety cap on the inflated text length.")
@_format_option
def gap_build(pattern: str, text: str, epsilon: str, cap: int | None, fmt: str) -> None:
    """Run the full reduction (threshold branch or inflation)."""
    started = time.perf_counter()
    with _usage_errors():
        pi = _load_permutation(pattern)
        tau = _load_permutation(text)
        eps = _parse_epsilon(epsilon)
        instance = gap.build_gap_instance(pi, tau, eps, max_text_len=cap)
    _emit(
        "gap build",
        {"pattern": pi.to_text(), "text": tau.to_text(), "epsilon": str(eps)},
        instance.to_json_obj(),
        started,
        fmt,
    )


@gap_group.command(name="core")
@click.option("--pattern", required=True)
@click.option("--text", required=True)
@click.option("--alpha", type=int, required=True)
@click.option("--cap", type=int, default=None, help="Safety cap on the inflated text length.")
@_format_option
def gap_core(pattern: str, text: str, alpha: int, cap: int | None, fmt: str) -> None:
    """Run the inflation step alone with an explicit alpha."""
    started = time.perf_counter()
    with _usage_errors():
        pi = _load_permutation(pattern)
        tau = _load_permutation(text)
        inflated_pattern, inflated_text = gap.build_core(pi, tau, alpha, max_text_len=cap)
    _emit(
        "gap core",
        {"pattern": pi.to_text(), "text": tau.to_text(), "alpha": alpha},
        {
            "inflated_pattern": inflated_pattern.to_text(),
            "inflated_text": inflated_text.to_text(),
            "k_prime": len(inflated_pattern),
            "n_prime": len(inflated_text),
        },
        started,
        fmt,
    )


@gap_group.command(name="check-bounds")
@click.option("--epsilon", required=True, help="Rational P/Q with 0 < P/Q < 1/2.")
@click.option("--k", "k_", type=int, required=True, help="Source pattern length.")
@click.option("--n", "n_", required=True,
              help="Source text length; decimal or BASE^EXP shorthand.")
@_format_option
def gap_check_bounds(epsilon: str, k_: int, n_: str, fmt: str) -> None:
    """Verify the exact inequality chains at an above-threshold scale."""
    started = time.perf_counter()
    with _usage_errors():
        eps = _parse_epsilon(epsilon)
        n = _parse_big_int(n_)
        report = gap.check_bounds(n, k_, eps)
    _emit(
        "gap check-bounds",
        {"epsilon": str(eps), "k": k_, "n": n_},
        report.to_json_obj(),
        started,
        fmt,
    )
    if not report.all_hold:
        click.echo("bound check failed", err=True)
        sys.exit(CHECK_FAILED)


@gap_group.command(name="verify")
@click.option("--pattern", required=True)
@click.option("--text", required=True)
@click.option("--alpha", type=int, required=True)
@click.option("--cap", type=int, default=None, help="Safety cap on the inflated text length.")
@_format_option
def gap_verify(pattern: str, text: str, alpha: int, cap: int | None, fmt: str) -> None:
    """Run the yes/no-case property battery on one desk-scale input."""
    started = time.perf_counter()
    with _usage_errors():
        pi = _load_permutation(pattern)
        tau = _load_permutation(text)
        report = gap.verify_core(pi, tau, alpha, max_text_len=cap)
    _emit(
        "gap verify",
        {"pattern": pi.to_text(), "text": tau.to_text(), "alpha": alpha},
        report.to_json_obj(),
        started,
        fmt,
    )
    if not report.checks_pass:
        click.echo("gap construction checks failed", err=True)
        sys.exit(CHECK_FAILED)


@main.command(name="selfcheck")
@click.option("--scale", type=click.Choice(["quick", "full"]), default="quick")
@_format_option
def selfcheck_cmd(scale: str, fmt: str) -> None:
    """Run the acceptance criteria suites."""
    from permpat import selfcheck

    started = time.perf_counter()
    results = selfcheck.run_all(scale)
    if fmt == "json":
        _emit(
            "selfcheck",
            {"scale": scale},
            {
                "passed": sum(1 for r in results if r.passed),
                "failed": sum(1 for r in results if not r.passed),
                "criteria": [
                    {
                        "id": r.cid,
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "elapsed_s": round(r.elapsed_s, 2),
                    }
                    for r in results
                ],
            },
            started,
            fmt,
        )
    else:
        for r in results:
            click.echo(r.line())
        click.echo(f"passed {sum(1 for r in results if r.passed)}/{len(results)}")
    if any(not r.passed for r in results):
        sys.exit(CHECK_FAILED)


if __name__ == "__main__":
    main()
