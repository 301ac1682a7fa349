"""CLI fuzz property: every --input file maps to a documented exit code.

Random files over every resonance class, with coefficients from 1/12 to
2^70 in size, on either chart, run through ``cli.main`` in-process under a
random verb and random flags.  Each must exit 0, 2 or 3 (never 4,
"internal error") and print no traceback; a ``verify`` example must also
end within its budget.  A file with a coefficient that is not real (an
imaginary part on the real chart, as small as 10^-301, or a complex-chart
polynomial that is not real-valued) must exit 2 on every verb.
"""

import contextlib
import io
import signal
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bgnf import cli
from bgnf.poly import Polynomial, read_polynomial, to_complex, write_polynomial
from bgnf.scalars import CC, RATIONAL, QuadExt, quad_field

from conftest import all_exponents

SQRT2 = "sqrt2"
FREQUENCIES = [(1, 1), (1, 2), (1, 3), (2, 3), (2, 5), (1, SQRT2)]
VERIFY_BUDGET_S = 5
# how a drawn real-chart file with real coefficients is rewritten
KINDS = ["real", "complex chart", "complex chart, not real-valued",
         "imaginary part"]
IMAGINARY = [Fraction(1, 10 ** 301), Fraction(-1, 12), Fraction(2 ** 70, 7)]


class BudgetExceeded(BaseException):
    """Raised by the alarm; not an Exception, so the CLI boundary lets it by."""


def _alarm(_signum, _frame):
    raise BudgetExceeded(f"verify ran past {VERIFY_BUDGET_S} s")


def _coefficient(draw, field) -> str:
    def q():
        size = draw(st.integers(1, 2 ** 70))
        return draw(st.sampled_from([1, -1])) * Fraction(
            size, draw(st.integers(1, 12)))
    return field.format_elem(QuadExt(q(), q(), 2) if field.d else q())


def _rewritten(draw, text: str, kind: str) -> str:
    """``text`` moved to the complex chart, or with a drawn imaginary part
    added to one coefficient of the real or the complex chart: then the
    polynomial is not real-valued, whatever the conjugate coefficient."""
    p = read_polynomial(text)
    if kind == "imaginary part":
        q = p
    else:
        q = to_complex(p)
        if kind == "complex chart":
            return write_polynomial(q)
    coeffs = dict(q.coeffs)
    e = draw(st.sampled_from(sorted(coeffs)))
    coeffs[e] = CC(coeffs[e].re,
                   coeffs[e].im + q.field.coerce(draw(st.sampled_from(IMAGINARY))))
    return write_polynomial(Polynomial(q.chart, q.field, q.order, coeffs))


@st.composite
def cases(draw):
    """(file text, argv, real): H2 plus 0-8 extra terms of degree 3..order,
    on the chart and with the reality its kind draws, and a verb with its
    flags, the file path left to the test."""
    a1, a2 = draw(st.sampled_from(FREQUENCIES))
    field = quad_field(2) if a2 == SQRT2 else RATIONAL
    half2 = QuadExt(0, Fraction(1, 2), 2) if field.d else Fraction(a2, 2)
    order = draw(st.sampled_from([4, 5, 6, 3]))
    lines = ["chart: real",
             f"field: {'quadratic(d=2)' if field.d else 'rational'}",
             f"order: {order}",
             f"{Fraction(a1, 2)} : 2 0 0 0", f"{Fraction(a1, 2)} : 0 0 2 0",
             f"{field.format_elem(half2)} : 0 2 0 0",
             f"{field.format_elem(half2)} : 0 0 0 2"]
    pool = [e for d in range(3, order + 1) for e in all_exponents(d)]
    extra = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    lines += [f"{_coefficient(draw, field)} : {' '.join(map(str, e))}"
              for e in extra]
    text = "\n".join(lines) + "\n"
    kind = draw(st.sampled_from(KINDS))
    if kind != "real":
        text = _rewritten(draw, text, kind)

    # hypothesis favours the first entry of a list: verify, and the file's
    # own order, so that most examples get past the flag checks
    verb = draw(st.sampled_from(["verify", "analyze", "normalize"]))
    argv = [verb, "--format", draw(st.sampled_from(["text", "json"]))]
    flag_order = draw(st.sampled_from([order, None, 3, 7]))
    if flag_order is not None:
        argv += ["--order", str(flag_order)]
    if verb != "normalize":
        # up to one past the cap floor(N/2) - 1 of the file's order
        series_order = draw(st.one_of(st.none(),
                                      st.integers(0, max(order // 2, 1))))
        if series_order is not None:
            argv += ["--series-order", str(series_order)]
    if verb == "verify":
        argv += ["--energies", draw(st.sampled_from(["1e-4", "1e-3", "1e-2"])),
                 "--horizon", "5"]
    return text, argv, kind in ("real", "complex chart")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cases())
def test_every_input_file_exits_0_2_or_3(tmp_path_factory, case):
    text, argv, real = case
    path = tmp_path_factory.mktemp("fuzz") / "h.poly"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    if argv[0] == "verify":
        signal.alarm(VERIFY_BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--input", str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    stderr = err.getvalue()
    assert code in ((cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_PRECONDITION)
                    if real else (cli.EXIT_INPUT,)), (argv, text, stderr)
    assert "internal error" not in stderr and "Traceback" not in stderr
