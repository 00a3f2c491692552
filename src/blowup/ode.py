"""Forward integration of the order-m problem and blow-up detection.

The Cauchy problem

    w^(m) = f(t, w, w', ..., w^(m-1)),    w^(i)(0) = a_i >= 0,

with 0 <= f(t, x) <= q(t) h(x_k) is integrated as the first-order system
y_i' = y_{i+1}, y_{m-1}' = f.  The integrator is the eighth-order
Dormand-Prince pair DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
Sec. II.10) with PI step-size control and its seventh-order continuous
extension as dense output, written here rather than taken from a library so
that threshold-escape events, forced restarts at the coefficient's jump
points, and the dense output are fully under control (all three are
load-bearing for blow-up time estimation).  The step and its continuous
extension are generated from the tableau per state size.  The step stops at
its error test; the extension's three extra stages are taken for a cell
only when something first reads that cell, which on the escape ladder is
the one step that crosses a rung.  Between restarts a step-function q (a
constant is its one piece) is one constant c, so for a power or powerlog h
the step computes f = c h(y_k) in its own stage lines; any other problem
calls :meth:`ProblemSpec.rhs` there.

Everything in the intended regime (q, h >= 0, a >= 0) is monotone: w^(m)
is nonnegative, so every lower derivative is nondecreasing.  Blow-up
manifests as escape through a ladder of thresholds.  Where the reduced order
is 1 with an h whose integral test converges from the node, or 2 with a
power h, the remaining time is the integral test's own tail, read from the
first accepted node before an escape that it can finish from, in a piece of
a step-function q that is positive and holds until T*; elsewhere the finite
blow-up time is estimated by Richardson/Aitken extrapolation of the escape
times, which needs no knowledge of the blow-up exponent.
"""

from __future__ import annotations

import functools
import linecache
import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NumericFailureError,
    check_int,
    check_real,
    check_thresholds,
    check_tol,
)
from .classify import classify_from
from .functions import Family, ScalarFn
from .quadrature import integral

__all__ = [
    "ProblemSpec",
    "Trajectory",
    "StepStats",
    "BlowupKind",
    "BlowupReport",
    "integrate",
    "detect_blowup",
    "aitken_blowup_estimate",
]

ESCAPE_THRESHOLD = 1e300
MIN_STEP_FACTOR = 1e-13
DEFAULT_THRESHOLDS = tuple(np.geomspace(10.0, 1e12, 12))
# Internal multiplier on the user tolerance: the per-step estimate controls
# the embedded 5th- and 3rd-order errors while the 8th-order solution is
# propagated, so the margin buys global accuracy near the user tol on
# unit-scale spans.
TOL_SAFETY = 0.05

# Dormand-Prince 8(5,3) tableau, DOP853 (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, 2nd ed., Sec. II.10; the digits are those
# of Hairer's dop853.f).  _C holds the nodes c_2..c_12 (c_12 = 1), _A the rows
# of stages 2..12, and _B the 8th-order weights, which are also the 13th
# stage's row (FSAL: that stage's state is y_new and its slope opens the next
# step).  _E5 and _E3 are the error rows against the embedded 5th- and
# 3rd-order weights (E3 = B - BHH).  The continuous extension takes three more
# stages, at the nodes _C_EXTRA with the rows _A_EXTRA, and its 4 highest
# coefficients are the rows of _D applied to all 16 slopes.
_C = (
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
_BHH = {  # the 3rd-order weights are B minus these, at their stages
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
_E3 = tuple(b - _BHH.get(j, 0.0) for j, b in enumerate(_B))
_C_EXTRA = (0.1, 0.2, 0.777777777777777777777777777778)
_A_EXTRA = (
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0, 2.53500210216624811088794765333e-1,
     -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
     1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
     7.56789766054569976138603589584e-3, -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0, 2.83009096723667755288322961402e-2,
     5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331,
     3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
)


# Top derivative of a stage for the families the step evaluates itself: how
# the step unpacks its coefficients, and the stage line with {s} the stage's
# component kk.  c is q's value on the segment; the operations are those of
# q.fn(t) * h.fn(s), in the same order.
_INLINE = {
    Family.POWER: ("kk, c, lam = coef", "c * {s} ** lam"),
    Family.POWER_LOG: ("kk, c, lam, sigma, shift = coef",
                       "c * ({s} ** lam * math.log(shift + {s}) ** sigma)"),
}


@functools.cache
def _stepper(m: int, family: Optional[Family] = None):
    """One DOP853 step for an m-component state and its continuous
    extension, generated from the tableau with every stage combination
    unrolled into scalar locals; returns (step, extend).

    step(arg, t, h, hi, y, f, tol) -> (y_new, f_new, err, K) takes stages
    2..13 and stops at the error test.  err is Hairer's combined norm of the
    5th- and 3rd-order error estimates on the scale tol (1 + max(|y_i|,
    |y_new_i|)).  K holds the slopes of stages 6..12, m floats each, the only
    ones besides f and f_new that the extension reads.

    extend(arg, t, h, hi, y, f, f_new, K) -> dense takes the three extra
    stages of the accepted step's continuous extension and returns its
    coefficients h D K, the 4 rows of D one after another, m floats each.
    It is the rest of the step, split off so that a cell nobody reads never
    pays for it (Hairer's dop853.f skips these stages too when no dense
    output is asked for): the two together compute, bit for bit, the
    uncut step.

    For a power or powerlog ``family`` both compute each stage's top
    derivative c h(s_k) themselves, from arg = (k, c, *h.params), with c q's
    value on the whole step; any stage that overflows, is complex or is not
    finite gives the step err = nan and makes extend raise
    NumericFailureError.  k is read at run time, so one pair serves every
    k < m, and the cache holds one pair per (m, family).  For any other
    family (None) arg is the right-hand side, called as rhs(t_j, [stage]) at
    the stage times, which are clamped to hi when the step passes it.  Each
    source is registered with linecache under a name that carries m and, for
    a family, the family, so tracebacks and profiles show its lines."""

    def combo(weights, i):  # sum_j w_j * slope_j[i], left to right, no zero terms
        return "".join(f" - {-w!r} * {sl[i]}" if w < 0 else f" + {w!r} * {sl[i]}"
                       for w, sl in zip(weights, slopes) if w).removeprefix(" + ")

    def listed(names):
        return f"[{', '.join(names)}]"

    def unpacked(names, source):
        return f"{''.join(f'{n}, ' for n in names)}= {source}"

    def stage(j, row):
        """Stage j's state from the slopes before it, and its slope's top
        derivative at the stage time t{j} (t12 for the FSAL stage 13)."""
        state = [f"s{j}_{i}" for i in idx]
        lines = [f"{state[i]} = y{i} + h * ({combo(row, i)})" for i in idx]
        if j == 13:
            lines.append(f"y_new = {listed(state)}")
        if top is None:
            lines.append(f"k{j} = rhs({'t12' if j == 13 else f't{j}'}, {'y_new' if j == 13 else listed(state)})")
        elif m == 1:
            lines.append(f"k{j} = {top.format(s=state[0])}")
        else:  # component kk of the stage, picked at run time
            pick = "".join(f"{s} if kk == {i} else " for i, s in enumerate(state[:-1])) + state[-1]
            lines += [f"x{j} = {pick}", f"k{j} = {top.format(s=f'x{j}')}"]
        return lines

    def clocked(names, nodes):
        """The stage times t + c h, each clamped to hi when t + h passes it."""
        last = "t12" if "t12" in names else None
        return [f"{', '.join(names)} = " + ", ".join("t + h" if c == 1.0 else f"t + {c!r} * h" for c in nodes),
                f"if {last or 't + h'} > hi:",
                f"    {', '.join(names)} = " + ", ".join("hi" if n == last else f"min({n}, hi)" for n in names)]

    unpack, top = _INLINE.get(family, (None, None))
    idx = range(m)
    # slope j of stage j: (stage j's components 1.., k{j}); slope 1 is f and
    # slope 13, the FSAL stage's, is f_new
    slopes = [[f"f{i}" for i in idx], *([f"s{j}_{i}" for i in idx[1:]] + [f"k{j}"] for j in range(2, 17))]
    kept = [n for j in range(2, 13) if any(row[j - 1] for row in (*_A_EXTRA, *_D)) for n in slopes[j - 1]]
    head = [unpacked((f"y{i}" for i in idx), "y"), unpacked((f"f{i}" for i in idx), "f")]

    step = head + (clocked([f"t{j}" for j in range(2, 13)], _C) if top is None else [])
    for j, row in zip(range(2, 14), (*_A, _B)):
        step += stage(j, row)
    # the error test, once y_new's slope is in: the scale max(|y_i|, |y_new_i|)
    # as the builtin max picks it, without its call
    for i in idx:
        step += [f"a{i}, b{i} = abs(y{i}), abs(s13_{i})",
                 f"d{i} = tol + tol * (b{i} if b{i} > a{i} else a{i})",
                 f"e5_{i}, e3_{i} = ({combo(_E5, i)}) / d{i}, ({combo(_E3, i)}) / d{i}"]
    step += [
        f"e5 = {' + '.join(f'e5_{i} * e5_{i}' for i in idx)}",
        f"e3 = {' + '.join(f'e3_{i} * e3_{i}' for i in idx)}",
        "den = e5 + 0.01 * e3",
        f"err = h * e5 / math.sqrt({'den' if m == 1 else f'den * {m}'}) if den else 0.0",
        f"f_new = {listed(slopes[12])}",
        f"return y_new, f_new, err, ({''.join(f'{n}, ' for n in kept)})",
    ]

    extend = head + [unpacked(slopes[12], "f_new"), unpacked(kept, "K")]
    extend += clocked([f"t{j}" for j in range(14, 17)], _C_EXTRA) if top is None else []
    for j, row in zip(range(14, 17), _A_EXTRA):
        extend += stage(j, row)
    if top is not None:  # rhs refuses a top derivative that is not finite
        extend.append(f"if not ({' and '.join(f'math.isfinite(k{j})' for j in range(14, 17))}):")
        extend.append("    raise ValueError")
    extend.append(f"return {listed(f'h * ({combo(row, i)})' for row in _D for i in idx)}")

    pair = []
    for name, body, args, failed in (
            ("step", step, "t, h, hi, y, f, tol", "return y, f, math.nan, None"),
            ("extension", extend, "t, h, hi, y, f, f_new, K",
             "raise NumericFailureError('a stage of the continuous extension failed') from None")):
        if top is None:
            src = [f"def {name}(rhs, {args}):", *(f"    {line}" for line in body)]
        else:
            # a float ** that overflows raises, a fractional power of a
            # negative stage is complex (math.sqrt, math.log and math.isfinite
            # refuse it), and math.log refuses a stage at or below -shift:
            # each is a failed stage
            src = [f"def {name}(coef, {args}):", f"    {unpack}", "    try:",
                   *(f"        {line}" for line in body),
                   "    except (ArithmeticError, TypeError, ValueError):",
                   f"        {failed}"]
        tag = "" if top is None else f", h={family.value}"
        text, filename = "\n".join(src) + "\n", f"<blowup.ode DOP853 {name}, m={m}{tag}>"
        namespace = {"math": math, "NumericFailureError": NumericFailureError}
        exec(compile(text, filename, "exec"), namespace)
        linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
        pair.append(namespace[name])
    return tuple(pair)


@dataclass(frozen=True)
class ProblemSpec:
    """Order-m Cauchy problem data.

    ``f_override``, when given, is called as f(t, y) with y the state
    vector (w, ..., w^(m-1)) and must satisfy 0 <= f <= q(t) h(y[k]); the
    default right-hand side is q(t) h(y[k]) itself.
    """

    m: int
    k: int
    a: tuple
    q: ScalarFn
    h: ScalarFn
    f_override: Optional[Callable[[float, np.ndarray], float]] = None

    def __post_init__(self):
        m = check_int("m", self.m)
        k = check_int("k", self.k, 0, m - 1, rule="must satisfy 0 <= k <= m-1")
        a = tuple(float(x) for x in self.a)
        if len(a) != self.m:
            raise InvalidParameterError(f"need {self.m} initial values, got {len(a)}")
        if any(x < 0.0 for x in a):
            raise InvalidParameterError("initial values must be >= 0")
        object.__setattr__(self, "a", tuple(check_real("initial values", x) for x in a))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        """Reduced order m - k."""
        return self.m - self.k

    def rhs(self, t: float, y: Sequence[float]) -> float:
        """Top derivative f(t, y) of the first-order system, for the state
        y = (w, ..., w^(m-1)) given as floats.

        q and h are evaluated through their ``.fn`` directly: calling the
        ScalarFn only forwards to it.  For a custom q or h, or with
        ``f_override``, this runs twelve times per step attempted and three
        more per stepped cell whose continuous extension is built (when the
        step crosses a rung, or when the trajectory is read there); the
        integrator's step and extension for a power or powerlog h under a
        step-function q compute the same product themselves and call
        this only at the start, at restarts and at an escape.  The product
        q(t) h(y[k]) is taken as is when it is a Python float.  Any other
        product (a numpy scalar from a custom h, a complex from a fractional
        power of a negative stage value) is recomputed as float(q) *
        float(h), with a complex h read as nan, which then fails the
        finiteness check so that the step is retried.
        """
        try:
            qv, hv = self.q.fn(t), self.h.fn(y[self.k])
        except OverflowError:  # Python's float ** raises where numpy gives inf
            raise NumericFailureError(f"q or h overflowed at t={t!r}, y={y!r}") from None
        qh = qv * hv
        if qh.__class__ is not float:
            # a fractional power of a negative stage value is complex for a
            # Python float (nan for numpy's): not finite either way
            qh = float(qv) * (math.nan if isinstance(hv, complex) else float(hv))
        if self.f_override is not None:
            fv = float(self.f_override(t, np.array(y)))
            # contract: 0 <= f <= q h, with float-scale slack
            slack = 1e-12 * (1.0 + abs(qh))
            if fv < -slack or fv > qh + slack:
                raise InvalidParameterError(
                    f"f_override out of [0, q*h] bounds at t={t!r}: f={fv!r}, q*h={qh!r}"
                )
        else:
            fv = qh
        if not math.isfinite(fv):
            raise NumericFailureError(f"right-hand side not finite at t={t!r}, y={y!r}")
        return fv


@dataclass(frozen=True)
class StepStats:
    """Counters of one forward integration.  ``evals`` counts the evaluations
    of the top derivative the integration made, inside the step or through
    ``ProblemSpec.rhs``: twelve per attempted step (one cut short by a
    failing stage included), one per slope taken outside the step (the
    start, each restart at a jump of q, an escape), and three per step that
    crosses a rung (the escape level, 1e300 in :func:`integrate`, is the
    last), whose continuous extension the integration builds to find the
    crossing.  Every cell's extension, a crossing step's again, is built
    when the trajectory is first read there (see :class:`Trajectory`), and
    those three evaluations per cell are not counted here.  ``rejected``
    steps failed the error test; ``retries`` followed a failed stage."""

    evals: int
    accepted: int
    rejected: int
    retries: int


# the recipe of a cell whose rows are the Hermite rows of its ends
_HERMITE = ()


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration nodes with dense output.

    ``ys[i]`` is the state (w, ..., w^(m-1)) at ``ts[i]``; ``dys[i]`` is its
    time derivative (y[1:], f).  Every producer (:func:`integrate`'s
    restarts, a Picard tower's ``trajectory``, a lift) marks a jump point of
    q inside the span by a repeated node in ``ts``: first with the
    left-limit derivative that closes the cell before it, then with the
    right-limit one that opens the cell after it.  ``stats`` holds the
    integrator's counters when the trajectory comes from :func:`integrate`,
    and ``event`` how it stopped before T, at ``t_end``: "escape" or
    "step-collapse" (None when it reached T, and on a grid).  A read past
    ``t_end`` raises.  Values are immutable once returned and safe to share.

    ``dense``, shape (cells, 4, m), holds for each cell [ts[i], ts[i+1]] the
    rows h D K of its continuous extension (see :func:`_coefficients` and
    :func:`_continuous`), whose value is ys[i] and ys[i+1], bitwise, at the
    cell's ends.  A stepped cell holds its step's rows, so its dense output
    is that step's seventh-order continuous extension.  Any other cell holds
    :func:`_hermite_rows`, which make the same formula the Hermite
    interpolant of the end values and derivatives: quintic on every
    component but the top one, whose second derivatives the state holds
    exactly (component i+2, or f for i = m-2), and cubic on the top one.
    Such cells are the integrator's zero-width restart cells, whose rows are
    zero, the last cell before an escape, which ends inside the step at the
    crossing (the step's extension is not rescaled to it), and every cell of
    a trajectory built on a grid (a Picard tower's or a lift).  A trajectory
    of one node, from an escape at t = 0, has no cell and evaluates to that
    node.

    A grid trajectory builds every cell's rows in one :func:`_hermite_rows`
    call at its first read and keeps them.  An integrator trajectory builds
    a cell's rows the first time anything reads that cell: every stepped
    cell keeps its step's slopes (:func:`_stepper`) until then, a step that
    crossed a rung too (the integration built its extension to find the
    crossing, and does not keep it), and the escape cell the mark that it
    takes Hermite rows; a call and :meth:`crossing` build the cells they read,
    ``dense`` and :meth:`reduced` every cell.  The rows are the same bits
    whenever and however often they are built: the rows and each cell are
    written before they count as built, and two readers may both build
    them.  A stepped cell whose extension has a stage that is not finite
    (which a step that passes its error test can still have) is read with
    the Hermite rows of its ends.
    """

    ts: np.ndarray
    ys: np.ndarray
    dys: np.ndarray
    tol: float
    stats: Optional[StepStats] = None
    event: Optional[str] = None  # None | "escape" | "step-collapse"
    # the rows, (cells, 4, m), None until a grid trajectory's first read, and
    # an integrator trajectory's cells not built yet, each with its recipe:
    # (segment, t, h, y, f, f_new, K) for a stepped cell, with segment =
    # (extend, arg, hi), or _HERMITE
    _rows: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _todo: Optional[dict] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("ts", "ys", "dys"):
            getattr(self, name).setflags(write=False)

    @property
    def m(self) -> int:
        return self.ys.shape[1]

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def distinct(self) -> np.ndarray:
        """Mask of ``ts``, False at the second copy of a repeated node."""
        return np.append(True, self.ts[1:] != self.ts[:-1])

    @property
    def dense(self) -> np.ndarray:
        """Every cell's rows, (cells, 4, m), read-only."""
        if self._todo:
            self._build(list(self._todo))
        rows = self._cells(slice(None))
        rows.setflags(write=False)
        return rows

    def _cells(self, i):
        """The rows of cell(s) i, an int, an int array or a slice, built
        first where they are not yet (a grid trajectory's all at once)."""
        if self._rows is None:
            ts, ys, dys = self.ts, self.ys, self.dys
            rows = _hermite_rows((ts[1:] - ts[:-1])[:, None], ys[:-1], ys[1:], dys[:-1], dys[1:])
            object.__setattr__(self, "_rows", rows)
        elif self._todo:
            self._build(dict.fromkeys(np.atleast_1d(i).tolist()))
        return self._rows[i]

    def _build(self, cells) -> None:
        """Build the rows of those ``cells`` (ints) not built yet: each
        stepped cell's extension on floats, one array over all of them, and
        one :func:`_hermite_rows` call over the cells that take those rows."""
        todo, built, stepped, hermite = self._todo, [], [], []
        for c in cells:
            recipe = todo.get(c)
            if recipe is None:  # built
                continue
            if recipe:  # a step's: its extension, unless a stage is not finite
                (extend, arg, hi), t, h, y, f, f_new, K = recipe
                try:
                    rows = extend(arg, t, h, hi, y, f, f_new, K)
                except NumericFailureError:
                    pass
                else:
                    built.append(c)
                    stepped.append(rows)
                    continue
            hermite.append(c)
        if stepped:
            self._rows[built] = np.array(stepped).reshape(len(built), 4, self.m)
        if hermite:
            ts, ys, dys = self.ts, self.ys, self.dys
            i = np.array(hermite)
            self._rows[i] = _hermite_rows((ts[i + 1] - ts[i])[:, None], ys[i], ys[i + 1], dys[i], dys[i + 1])
        for c in (*built, *hermite):  # written: built
            todo.pop(c, None)

    def __call__(self, t):
        """Dense state at time(s) t within the grid span; shape (..., m)."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.shape == ()
        tq = np.atleast_1d(t_arr)
        if np.any(tq < self.ts[0] - 1e-12) or np.any(tq > self.ts[-1] * (1 + 1e-12) + 1e-12):
            raise InvalidParameterError("dense output requested outside the grid span")
        if len(self.ts) == 1:  # no cell: an escape at t = 0
            out = np.repeat(self.ys, len(tq), axis=0)
            return out[0] if scalar else out
        i = np.clip(np.searchsorted(self.ts, tq, side="right") - 1, 0, len(self.ts) - 2)
        h = (self.ts[i + 1] - self.ts[i])[:, None]
        th = np.clip(((tq - self.ts[i])[:, None]) / h, 0.0, 1.0)
        y0, y1, d0, d1 = self.ys[i], self.ys[i + 1], self.dys[i], self.dys[i + 1]
        out = _continuous(th, y0, y1, _coefficients(h, y0, y1, d0, d1, self._cells(i).transpose(1, 0, 2)))
        # the nodes themselves, bitwise
        out = np.where(th == 0.0, y0, np.where(th == 1.0, y1, out))
        return out[0] if scalar else out

    def crossing(self, level: float, lo: float) -> float:
        """First time in [lo, t_end] at which w = component 0 reaches ``level``.

        The first node at or after ``lo`` where w >= level ends the cell, so a
        non-monotone w gets its first crossing at the nodes' resolution; the
        crossing inside the cell is then found on floats, on the interpolant
        this trajectory's dense output evaluates there, by safeguarded false
        position (:func:`_find_level`).  Raises
        InvalidParameterError when no node in [lo, t_end] reaches the level.
        """
        w, i = self.ys[:, 0], int(np.searchsorted(self.ts, lo))
        hit = w[i:] >= level
        if not hit.any():
            raise InvalidParameterError(f"w stays below {level!r} on [{lo!r}, {self.t_end!r}]")
        i += int(np.argmax(hit))
        if i == 0:
            return float(self.ts[0])
        t0, hi = float(self.ts[i - 1]), float(self.ts[i])
        cell = (hi - t0, float(w[i - 1]), float(w[i]), float(self.dys[i - 1, 0]), float(self.dys[i, 0]))
        # find the root of the residual w - level, taken from the nearer end:
        # a level that a node's w equals is crossed at that node
        below = (cell[1] - level, cell[2] - level, _coefficients(*cell, self._cells(i - 1)[:, 0].tolist()))
        return _find_level(lambda t: _continuous((t - t0) / cell[0], *below), 0.0, max(float(lo), t0), hi)

    def reduced(self, k: int) -> "Trajectory":
        """Components k.. as a trajectory of their own, u = w^(k) with its
        m - k - 1 derivatives, on views of this one's arrays and ``dense``
        (same ``tol`` and ``stats``).  Every formula of the dense output acts
        on each component with its own and its next component's values, so
        the result evaluates, bitwise, to this trajectory's columns k.., and
        its ``crossing`` is this one's crossing of w^(k)."""
        k = check_int("k", k, 0, self.m - 1, f"must be an integer in [0, {self.m - 1}]")
        return Trajectory(ts=self.ts, ys=self.ys[:, k:], dys=self.dys[:, k:], tol=self.tol,
                          stats=self.stats, event=self.event, _rows=self.dense[:, :, k:])


class BlowupKind(str, Enum):
    GLOBAL_UP_TO_HORIZON = "GlobalUpToHorizon"
    BLOW_UP = "BlowUp"


@dataclass(frozen=True)
class BlowupReport:
    """``t_blow_method`` says where the blow-up time came from: "tail" (the
    tail integral from the accepted node before the last escape, see
    :func:`detect_blowup`) or "extrapolated" (the escape ladder's
    extrapolation, whose interval is heuristic); None without a blow-up
    time.  ``kind`` describes [0, horizon]: a GLOBAL_UP_TO_HORIZON report
    with method "tail" carries the tail's T*, past the horizon."""

    kind: BlowupKind
    horizon: float
    escape_thresholds: tuple  # ((M, t_M), ...)
    t_blow_estimate: Optional[float] = None
    t_blow_interval: Optional[tuple] = None
    trajectory: Optional[Trajectory] = None
    t_blow_method: Optional[str] = None


def integrate(p: ProblemSpec, T: float, tol: float = 1e-9) -> Trajectory:
    """Integrate up to T; returns the Trajectory, which ends before T, with
    ``event`` "escape" or "step-collapse", if the largest component of the
    state reaches ESCAPE_THRESHOLD = 1e300, near the end of the floats, or
    the step collapses first: the one-rung ladder, :func:`detect_blowup`
    with thresholds (ESCAPE_THRESHOLD,)."""
    return _integrate_events(p, T, tol, (ESCAPE_THRESHOLD,))[0]


def _coefficients(h, y0, y1, d0, d1, rows):
    """The 7 coefficients F of a step's continuous extension (Hairer's
    CONTD8) from the ends of its cell, of width h: the end values y0, y1,
    the end derivatives d0, d1, and the 4 rows h D K the step computed.
    Floats, or arrays with one row per cell."""
    delta = y1 - y0
    return (delta, h * d0 - delta, 2.0 * delta - h * (d1 + d0), *rows)


def _continuous(th, y0, y1, F):
    """The seventh-order continuous extension of a DOP853 step at
    th = (t - t0)/h, from its end values and coefficients F (see
    :func:`_coefficients`), with s = 1 - th and G = F1 + th (F2 + s (F3 +
    th (F4 + s (F5 + th F6)))):

        y0 + th (F0 + s G)  for th <= 1/2,    y1 + s (th G - F0)  past it.

    The two forms agree up to the rounding of F0 = y1 - y0; each starts from
    its nearer end, so y0 and y1 come back at th = 0 and 1, and a value near
    a node is not absorbed into the node's rounding.  So with y0 - level and
    y1 - level for the ends this is the residual P(th) - level, whose sign
    is exact at and near the nodes."""
    F0, F1, F2, F3, F4, F5, F6 = F
    s = 1.0 - th
    g = F1 + th * (F2 + s * (F3 + th * (F4 + s * (F5 + th * F6))))
    if isinstance(th, float):
        return y0 + th * (F0 + s * g) if th <= 0.5 else y1 + s * (th * g - F0)
    return np.where(th <= 0.5, y0 + th * (F0 + s * g), y1 + s * (th * g - F0))


def _hermite_rows(h, y0, y1, d0, d1):
    """The rows h D K (see :func:`_coefficients`) that make the continuous
    extension of cells of widths h the Hermite interpolant of their end
    values y0, y1 and end derivatives d0, d1 (arrays (..., m), one row per
    cell): quintic on the lower components, whose second derivatives are the
    derivative's next component, through F3 = h^2 s0/2 + h (2 d0 + d1) -
    3 delta and F4 = h^2 (s1 - s0)/2 - 3 h (d0 + d1) + 6 delta, and cubic on
    the top one, through zero rows; shape (..., 4, m)."""
    delta, hd0, hd1 = (y1 - y0)[..., :-1], h * d0[..., :-1], h * d1[..., :-1]
    hs0, hs1 = h * d0[..., 1:], h * d1[..., 1:]
    rows = np.zeros((*y0.shape[:-1], 4, y0.shape[-1]))
    rows[..., 0, :-1] = 0.5 * h * hs0 + (2.0 * hd0 + hd1) - 3.0 * delta
    rows[..., 1, :-1] = 0.5 * h * (hs1 - hs0) - 3.0 * (hd0 + hd1) + 6.0 * delta
    return rows


def _float_mid(lo, hi):
    """The float halfway between 0 <= lo < hi in float order, which for
    floats >= 0 is the order of their bit patterns."""
    a, b = (struct.unpack("<q", struct.pack("<d", abs(x)))[0] for x in (lo, hi))
    return struct.unpack("<d", struct.pack("<q", (a + b) // 2))[0]


def _find_level(value, level, lo, hi):
    """Shrink [lo, hi] on floats, keeping value < level at lo and >= level at
    hi, until the midpoint no longer splits the bracket; returns hi.

    Each point is the false-position point of the bracket, with the Illinois
    rule (an end kept twice in a row has its residual halved, so both ends
    close in).  Where that point rounds onto an end (an end whose residual
    is 0, or a lo a float or so below the crossing), the point k ulps of
    that end inside is tried instead, with k = 1, 2 and 4 at the first three
    such points at that end in a call: a crossing a few floats from an end,
    where the residuals are rounding noise, takes two or three points, and
    a farther one is left to bisection, which a longer gallop would only put
    off.  A bisection step is taken when the point is still not strictly
    inside the bracket, or when the end residuals do not bracket the level
    (a lo where value >= level after all), until they do, and after two
    plain false-position points in a row (no ulp try between) that each move
    the end the point before moved and leave more than half the bracket,
    which bounds a walk up from lo by Illinois halvings.  Bisection halves
    the width of a bracket with hi <= 2 lo, and the count of floats in a
    wider one with lo >= 0 (:func:`_float_mid`): on a
    crossing many binades below hi, where the false-position point rounds to
    an end, that takes at most 63 steps, where halving the width takes up to
    ~1075.  Where value is monotone the result is the first float at which
    it reaches the level, the same as bisecting down to adjacent floats; on
    the integrator's cells it takes about a fifth of the evaluations, 9 to
    10 a crossing, ends included."""
    r_lo, r_hi, kept, slow = value(lo) - level, value(hi) - level, 0, 0
    k_lo = k_hi = 1  # the next try at that end lies k floats from it
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # so a float lies strictly inside
        t, plain, width = lo, False, hi - lo
        if r_lo < 0.0 <= r_hi and slow < 2:
            t = hi - r_hi * ((hi - lo) / (r_hi - r_lo))
            if t <= lo and k_lo <= 4:
                t, k_lo = lo + k_lo * math.ulp(lo), 2 * k_lo
            elif t >= hi and k_hi <= 4:
                t, k_hi = hi - k_hi * math.ulp(hi), 2 * k_hi
            else:
                plain = lo < t < hi
        if not lo < t < hi:
            t = _float_mid(lo, hi) if 0.0 <= 2.0 * lo < hi else mid
        r = value(t) - level
        side = -1 if r < 0.0 else 1
        if side < 0:
            lo, r_lo = t, r
            if kept < 0:
                r_hi *= 0.5
        else:
            hi, r_hi = t, r
            if kept > 0:
                r_lo *= 0.5
        slow = slow + 1 if plain and side == kept and hi - lo > 0.5 * width else 0
        kept = side
    return hi


def _integrate_events(
    p: ProblemSpec,
    T: float,
    tol: float,
    thresholds: Sequence[float],
    tail: Optional[Callable[[float, Sequence[float]], float]] = None,
):
    """Core loop.  Returns (Trajectory, {M: t_M crossings}, T*); the
    trajectory's ``event`` says why a run stopped before T.

    ``thresholds`` is the ladder, increasing; its last rung is the escape.
    A step whose largest component reaches the next rung records each rung
    it crosses at the first time the largest component of its continuous
    extension reaches it.  At the first rung a step crosses, ``tail``
    (:func:`_tail_rule`) gives T* from the accepted node (t_k, y_k) that
    starts the step, or from y(0) for data already past it; T* is its last
    answer that is not nan (nan without one).  A T* <= T ends the run as an
    escape through that rung, with no crossing above it recorded, and so
    does the last rung; the trajectory then ends at the crossing, after
    (t_k, y_k).  Otherwise the run goes on, and the step's other crossings
    are recorded without asking again: the node is the same."""
    tol = check_tol(tol)
    if not (0.0 < T < math.inf):
        raise InvalidParameterError(f"T must be > 0 and finite, got {T!r}")

    y = list(p.a)
    crossings: dict[float, float] = {}
    pending = list(thresholds)

    evals = accepted = rejected = retries = 0
    t_blow = math.nan

    def finish(event=None):
        """The Trajectory, stopped by ``event`` if one is given, the crossings and T*."""
        if len(ts) > 1 and ts[-1] == ts[-2]:  # stopped right at a restart
            del ts[-1], ys[-1], dys[-1], cells[-1]
        traj = Trajectory(ts=np.array(ts), ys=np.array(ys), dys=np.array(dys), tol=tol,
                          stats=StepStats(evals, accepted, rejected, retries), event=event,
                          _rows=np.zeros((len(cells), 4, p.m)),
                          _todo={i: c for i, c in enumerate(cells) if c is not None})
        return traj, crossings, t_blow

    def climb(t, y, t_end, y_end, cell=None):
        """Record each rung y_end reaches, where the largest component of
        ``cell``, the step's continuous extension on [t, t_end], reaches it
        (at t without one), asking the tail once, from the node (t, y).
        Returns the rung the run stops at: the first whose T* <= T, or else
        the last rung; None while rungs are left."""
        nonlocal t_blow
        ask = tail
        while pending and max(y_end) >= pending[0]:
            M = pending.pop(0)
            crossings[M] = _find_level(lambda s: max(cell(s)), M, t, t_end) if cell else t
            if ask:
                ask = None
                answer = tail(t, y)
                t_blow = t_blow if math.isnan(answer) else answer
                if answer <= T:
                    return M
        return None if pending else M

    # The state and slopes are lists of floats and the step works on scalar
    # locals: numpy's per-call overhead dominates on states of one to three
    # components.  A slope is (y[1:], f); only f calls the right-hand side.
    # Within a segment a step-function q is one constant c, so for a power
    # or powerlog h the step computes c h(y_k) itself.
    inline = p.f_override is None and p.h.family in _INLINE and p.q.family is Family.PIECEWISE
    rhs = arg = p.rhs
    step, extend = _stepper(p.m, p.h.family) if inline else _stepper(p.m)
    t = 0.0
    f = y[1:] + [rhs(t, y)]
    evals += 1
    # cells[i] is what gives the cell ending at ts[i+1] its rows h D K (see
    # Trajectory): the recipe of a step's continuous extension, _HERMITE for
    # the escape cell, or None for a restart's zero-width cell, whose rows
    # are zero
    ts, ys, dys, cells = [t], [y], [f], []

    # data may already sit past rungs, the last one too
    if climb(t, y, t, y) is not None:
        return finish("escape")

    eff_tol = tol * TOL_SAFETY
    h = min(0.01 * (1.0 + max(map(abs, y))) / (1.0 + max(map(abs, f))), T / 10.0)
    err_prev = 1.0

    for seg_end in p.q.cuts(0.0, T)[1:]:
        # within a segment stay on its own branch of q: the step clamps its
        # stage times to hi, so they never see the jump's right limit
        hi = math.nextafter(seg_end, -math.inf)

        if t > 0.0:
            # a restart: q may jump here, so the node repeats with the
            # right-limit derivative
            f = y[1:] + [rhs(t, y)]
            evals += 1
            ts.append(t)
            ys.append(y)
            dys.append(f)
            cells.append(None)
        if inline:
            arg = (p.k, p.q.fn(t), *p.h.params)
        segment = (extend, arg, hi)
        while t < seg_end:
            # min and max written as the builtins pick, without their calls; a
            # step that ends the segment ends on seg_end, which t + h can miss
            last = seg_end - t <= h
            h = seg_end - t if last else h
            min_step = MIN_STEP_FACTOR * (abs(t) if abs(t) > 1.0 else 1.0)
            if h < min_step:
                return finish("step-collapse")

            coef = None
            try:
                y_new, f_new, err, K = step(arg, t, h, hi, y, f, eff_tol)
                # a step that reaches the next rung is read inside: its
                # continuous extension now, whose failed stage fails the step
                # like any other
                if err <= 1.0 and max(y_new) >= pending[0]:
                    coef = extend(arg, t, h, hi, y, f, f_new, K)
            except NumericFailureError:
                err = math.nan
            evals += 12
            if not math.isfinite(err):
                # a stage overflowed or was complex or not finite: retry with
                # a smaller step before giving up
                retries += 1
                h *= 0.25
                if h < min_step:
                    raise NumericFailureError(f"no step with finite stages from t={t!r}, y={y!r}")
                continue
            if err > 1.0:
                rejected += 1
                fac = 0.9 * err ** -0.125
                h *= fac if fac > 0.2 else 0.2
                continue

            accepted += 1
            t_new = seg_end if last else t + h
            if coef is not None:
                # rung crossings inside this step, on its continuous
                # extension as a function of time, one float per component
                # (components are monotone in the intended regime; the
                # bracket kept by _find_level makes it robust regardless)
                evals += 3
                width = t_new - t
                ext = [(a, b, _coefficients(width, a, b, da, db, coef[i::p.m]))
                       for i, (a, b, da, db) in enumerate(zip(y, y_new, f, f_new))]

                def cell(s):
                    return [_continuous((s - t) / width, *c) for c in ext]

                level = climb(t, y, t_new, y_new, cell)
                if level is not None:
                    t_star = crossings[level]
                    y_star = cell(t_star)
                    ts.append(t_star)
                    ys.append(y_star)
                    dys.append(y_star[1:] + [rhs(min(t_star, hi), y_star)])
                    # the step's extension ends at t_new, not at the crossing
                    cells.append(_HERMITE)
                    evals += 1
                    return finish("escape")

            ts.append(t_new)
            ys.append(y_new)
            dys.append(f_new)
            cells.append((segment, t, h, y, f, f_new, K))
            t, y, f = t_new, y_new, f_new

            # PI controller (Gustafsson's exponents 0.7/p and 0.4/p, for the
            # order p = 8 of the error estimate)
            fac = 0.9 * err ** -0.0875 * err_prev ** 0.05 if err > 0.0 else 5.0
            fac = fac if fac > 0.2 else 0.2
            h *= fac if fac < 5.0 else 5.0
            err_prev = 1e-10 if 1e-10 > err else err

    return finish()


def detect_blowup(
    p: ProblemSpec,
    *,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    horizon: float = 50.0,
    tol: float = 1e-10,
) -> BlowupReport:
    """Escape-time ladder, finished by the integral test's tail where it is
    exact and by extrapolation elsewhere.

    Where :func:`_tail_rule` applies (reduced order n <= 2, no
    ``f_override``, a step-function q (a constant is its one piece), and for
    n = 2 h a power s^lam with lam > 1), the integral test's tail gives
    T* - t exactly from any state in a piece of q whose value c is > 0, when
    that piece holds until T*; for n = 1 it is the integral test from the
    node, for any h.  So the first threshold crossed by each step asks for
    T* = t_k + tail(y_k) with the c of the piece the node is in, once per node,
    with (t_k, y_k) the accepted node that starts the crossing step (y(0)
    for data already past the threshold), and the first T* within the
    horizon ends the run, with ``t_blow_method`` "tail"; the escape row and
    the trajectory end at the interpolated crossing.  A node the tail cannot
    finish from (u = w^(k) or, for n = 2, u' still 0, a piece with c <= 0 or
    that ends before T*, or for n = 1 a test from u that gives no estimate)
    passes to the next rung, so a jump of q after T* changes nothing.  No
    interpolation error enters T*: y_k is a state the step itself computed
    and accepted, where the interpolated state at the crossing would add the
    dense output's error, a sizeable share of the interval at a low rung.
    An error of y_k that is a time shift moves the solution through y_k and
    its tail by opposite amounts, so to first order it cancels; what is left
    is the drift of the solution, held near tol relative over unit spans by
    the step control at TOL_SAFETY * tol, and the tail's quadrature error,
    1e-12 relative (QUAD_TOL).  The interval is T* +- 10 tol max(1, T*): an
    error estimate with a margin, not a proof.  On drawn power problems with
    n = 1 and 2 and tol from 1e-12 to 1e-4 the error stayed under 1% of its
    half-width; the tests check it against closed-form and mpmath blow-up
    times from ladders that start at 10, 1e3 and 1e6.

    A T* past the horizon is final too.  The run then goes on through the
    ladder, asking again at each later crossing step, and may still escape
    its top rung before the horizon; the report is GLOBAL_UP_TO_HORIZON,
    since ``kind`` describes [0, horizon] and the solution exists there, and
    carries the last T* the tail gave as ``t_blow_estimate``, with the same
    interval and ``t_blow_method`` "tail".  Only when no rung gives a T* is
    the report the ladder's.

    Of the trajectory's continuous extension only the steps that cross a
    rung are built during the run, to find the crossings, and not kept;
    every cell's is built when the report's trajectory is read (see
    :class:`Trajectory`).

    Otherwise integrates until every threshold M has been escaped (recording
    t_M), the step size collapses, which is escape to numerical infinity, or
    the horizon is reached; the report is global up to the horizon exactly
    when the run reached it (its trajectory's ``event`` is None).  After an
    escape the blow-up time is estimated by Richardson/Aitken extrapolation
    of the t_M sequence (t_end below three of them) and bracketed by the
    heuristic [t_last, estimate + margin] (``t_blow_method``
    "extrapolated"), whose lower end, the last escape time, carries the
    integration error.  A collapse below the first rung reports t_end with
    the tail's interval, since the step floor can stop a little past T*.
    """
    thresholds = check_thresholds(thresholds)

    traj, crossings, t_blow = _integrate_events(p, horizon, tol, thresholds, _tail_rule(p))
    escapes = tuple(crossings.items())

    times = [tM for _, tM in escapes]
    if any(b < a for a, b in zip(times, times[1:])):
        raise InternalConsistencyError(f"escape times not monotone: {times}")

    method = "tail"
    if math.isnan(t_blow) and traj.event == "step-collapse" and not escapes:
        # the step collapsed below the first rung, at t_end, which the step
        # floor can put a little past T*: an interval both ways, as the tail's
        t_blow, method = traj.t_end, "extrapolated"
    if not math.isnan(t_blow):
        half = 10.0 * tol * max(1.0, t_blow)
        return BlowupReport(
            kind=BlowupKind.BLOW_UP if t_blow <= horizon else BlowupKind.GLOBAL_UP_TO_HORIZON,
            horizon=float(horizon),
            escape_thresholds=escapes,
            t_blow_estimate=float(t_blow),
            t_blow_interval=(t_blow - half, t_blow + half),
            trajectory=traj,
            t_blow_method=method,
        )

    if traj.event is None:
        return BlowupReport(
            kind=BlowupKind.GLOBAL_UP_TO_HORIZON,
            horizon=float(horizon),
            escape_thresholds=escapes,
            trajectory=traj,
        )

    # A step-size collapse is escape to numerical infinity: very fast
    # blow-ups can exhaust the step floor between two thresholds.
    estimate = traj.t_end
    if len(times) >= 3:
        noise_floor = max(1e-12, 20.0 * tol) * max(1.0, times[-1])
        estimate = _extrapolate_escape_times(times, [M for M, _ in escapes], noise_floor)
    estimate = max(times[-1], estimate)  # not a -0.0 estimate over t_last = 0.0
    margin = max(10.0 * tol * max(1.0, estimate), 0.5 * (estimate - times[-1]))
    return BlowupReport(
        kind=BlowupKind.BLOW_UP,
        horizon=float(horizon),
        escape_thresholds=escapes,
        t_blow_estimate=float(estimate),
        t_blow_interval=(times[-1], estimate + margin),
        trajectory=traj,
        t_blow_method="extrapolated",
    )


# the n = 2 tail's panel edges in z, x = 1 - z^2, over x in [1/2, 1]
_Z_EDGES = (0.0, *(4.0 ** -j for j in range(27, 0, -1)), math.sqrt(0.5))


def _tail_rule(p: ProblemSpec) -> Optional[Callable[[float, Sequence[float]], float]]:
    """T* as a function of a time t and the state y there, where the
    integral test's tail gives T* - t exactly; else None.

    The tail holds in the piece of a step-function q (a constant is its one
    piece) that t is in, when it holds until T*: there q is its value c > 0
    and u = w^(k) solves u^(n) = c h(u).  With u_M = y[k]:
    - n = 1, any h: T* - t = (1/c) int_{u_M}^inf ds / h(s), the integral
      test from u_M, whose :func:`classify_from` estimate is None unless it
      converges, so no verdict is asked up front;
    - n = 2, h = s^lam: the energy identity u'^2 = v^2 + kappa (u^(lam+1) -
      u_M^(lam+1)), with v = y[k+1] and kappa = 2c/(lam+1), gives T* - t =
      int_{u_M}^inf ds / u'.  With s = u_M x^(-beta), beta = 2/(lam-1), and
      e = kappa u_M^(lam+1), this is the bounded integral
      beta u_M / sqrt(e) * int_0^1 dx / sqrt(1 + (v^2/e - 1) x^K), K =
      2 beta + 2, taken on :func:`blowup.quadrature.integral`; e enters
      through its logarithm, so no power of u_M overflows.  Past x = 1/2 it
      is taken in z, x = 1 - z^2, where 1 - x^K = -expm1(K log1p(-z^2)) has
      no cancellation however small v^2/e is, on panels with edges at the
      powers 4^-j down to 4^-27, so that each scale at which v^2/e can take
      over from 1 - x^K, z ~ sqrt(v^2 / (e K)), starts panels of its own.
    The returned function gives nan where t's piece has c <= 0 or ends
    before T*, where h's test from u_M gives no estimate (n = 1) and from a
    state it cannot finish from: u_M <= 0, v <= 0 for n = 2, or a tail that
    raises an ArithmeticError (a test that cannot start, v^2 / e overflows).
    """
    q, h, n, k = p.q, p.h, p.n, p.k
    if p.f_override is not None or n > 2 or q.family is not Family.PIECEWISE:
        return None
    if n == 1:

        def tail(y, c):
            u = float(y[k])
            if not u > 0.0:
                return math.nan
            est = classify_from(h, 1, u).estimate  # None unless the test converges
            return math.nan if est is None else est / c
    elif n == 2 and h.family is Family.POWER and h.params[0] > 1.0:
        lam = h.params[0]
        beta = 2.0 / (lam - 1.0)
        K = 2.0 * beta + 2.0

        def tail(y, c):
            u, v = float(y[k]), float(y[k + 1])
            if not (u > 0.0 and v > 0.0):
                return math.nan
            half_log_e = 0.5 * (math.log(2.0 * c / (lam + 1.0)) + (lam + 1.0) * math.log(u))
            r2 = math.exp(2.0 * (math.log(v) - half_log_e))  # v^2 / e
            near = integral(lambda x: (1.0 + (r2 - 1.0) * x ** K) ** -0.5, [0.0, 0.5])
            far = integral(lambda z: 2.0 * z / np.sqrt(-np.expm1(K * np.log1p(-z * z)) + r2 * (1.0 - z * z) ** K),
                           _Z_EDGES)
            return beta * math.exp(math.log(u) - half_log_e) * (near + far)
    else:
        return None

    def t_blow(t, y):
        c = q.fn(t)
        try:
            t_star = t + tail(y, c) if c > 0.0 else math.nan
        except ArithmeticError:
            return math.nan
        return t_star if t_star <= q.cuts(t, math.inf)[1] else math.nan

    return t_blow


def aitken_blowup_estimate(times: Sequence[float], noise_floor: float = 1e-12) -> float:
    """Iterated Aitken acceleration of an increasing escape-time sequence.

    Each Aitken stage maps x_j -> x_{j+2} - (dx_{j+1})^2 / (x_{j+2} - 2 x_{j+1} + x_j)
    and is exact for geometrically converging errors (power-law blow-up);
    for slower, log-type sequences a stage roughly halves the residual.
    Stages stop when second differences fall under the noise floor or the
    stage stops improving (the deepest table entries go non-monotone).
    """
    table = np.asarray(times, dtype=float)
    if len(table) == 0:
        raise InvalidParameterError("need at least one escape time")
    best = float(table[-1])
    while len(table) >= 3:
        d2 = table[2:] - 2.0 * table[1:-1] + table[:-2]
        if np.any(np.abs(d2) < noise_floor):
            break
        nxt = table[2:] - (table[2:] - table[1:-1]) ** 2 / d2
        if not np.all(np.isfinite(nxt)):
            break
        # for an increasing sequence with a finite limit every valid stage
        # must move the deepest entry forward
        if float(nxt[-1]) <= best:
            break
        table = nxt
        best = float(table[-1])
    return best


def _neville_to_zero(z: np.ndarray, t: np.ndarray) -> float:
    """Neville polynomial extrapolation of t(z) to z = 0."""
    tab = t.astype(float).copy()
    npts = len(z)
    for order in range(1, npts):
        for i in range(npts - order):
            # value at z=0 of the interpolant through z[i..i+order]
            tab[i] = (z[i + order] * tab[i] - z[i] * tab[i + 1]) / (z[i + order] - z[i])
    return float(tab[0])


def _extrapolate_escape_times(
    times: Sequence[float], thresholds: Sequence[float], noise_floor: float
) -> float:
    """Blow-up time from the escape ladder.

    Primary estimator: Richardson (Neville) extrapolation of t_M against
    z = 1/log(M) to z = 0.  For power-law blow-up t_M - T decays like a
    power of M (all z-derivatives vanish at 0), for log-driven blow-up it
    is asymptotically linear in z; polynomial extrapolation handles both
    without knowing the blow-up exponent.  Falls back to iterated Aitken
    when the polynomial estimate is not sane (must exceed the last escape
    and stay within one ladder-width of it).
    """
    t = np.asarray(times, dtype=float)
    z = 1.0 / np.log(np.asarray(thresholds, dtype=float))
    est = _neville_to_zero(z, t)
    spread = t[-1] - t[0]
    if math.isfinite(est) and t[-1] <= est <= t[-1] + max(spread, 1.0):
        return est
    return aitken_blowup_estimate(times, noise_floor=noise_floor)
