"""QUADPACK's QAGS on a finite interval.

A port of dqagse with its 21-point Gauss-Kronrod rule dqk21, its
error-list ordering dqpsrt and its Wynn epsilon extrapolation dqelg
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK,
Springer 1983).  It keeps the Fortran operation order and decimal
constants and takes d1mach(1), (2) and (4) from sys.float_info, so on an
integrand that meets the contract below it returns the bits of
scipy.integrate.quad(f, a, b, epsabs=..., epsrel=..., limit=...): value,
error estimate, failure flag and subinterval count.  There are no
weights, breakpoints or infinite limits.

Integrand contract: each rule calls f once, on a float64 array of its 21
nodes, and sums the returned values as Python floats in QUADPACK's
order.  A value that is not finite raises ValueError naming its node.
The result is bitwise QUADPACK's only if every element of f(array)
equals f at that node alone.  numpy ufuncs (exp, cosh, log, sqrt,
power, ...) and the four arithmetic operators meet it; Python-float **
does not, since libm pow and numpy's array power differ in the last bit
at some points.

Arrays are 1-based as in the Fortran (slot 0 unused), so every index
reads as in the source.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_EPMACH = sys.float_info.epsilon   # d1mach(4)
_UFLOW = sys.float_info.min        # d1mach(1)
_OFLOW = sys.float_info.max        # d1mach(2)
_LIMEXP = 50                       # dqelg: longest epsilon table

# dqk21: Kronrod abscissae xgk(1..10) (xgk(11) is the centre, 0), the
# 10-point Gauss weights wg(1..5) of xgk(2), xgk(4), ..., xgk(10), and
# the Kronrod weights wgk(1..11)
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720])
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the rule on [a, b]."""
    wg, wgk = _WG, _WGK
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    absc = hlgth * _XGK
    x = np.concatenate(((centr,), centr - absc, centr + absc))
    fv = f(x).tolist()
    # the plain sum is finite unless a value is not (or the sum overflows)
    if not math.isfinite(sum(fv)):
        for xi, v in zip(x.tolist(), fv):
            if not math.isfinite(v):
                raise ValueError(f"the integrand is {v!r} at the node "
                                 f"x = {xi!r}; qags needs finite values")
    fc, fv1, fv2 = fv[0], fv[1:11], fv[11:]
    resg = 0.0
    resk = wgk[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):        # Gauss nodes xgk(2), xgk(4), ...
        fsum = fv1[j] + fv2[j]
        resg = resg + wg[j // 2] * fsum
        resk = resk + wgk[j] * fsum
        resabs = resabs + wgk[j] * (abs(fv1[j]) + abs(fv2[j]))
    for j in (0, 2, 4, 6, 8):        # Kronrod-only nodes xgk(1), xgk(3), ...
        fsum = fv1[j] + fv2[j]
        resk = resk + wgk[j] * fsum
        resabs = resabs + wgk[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = wgk[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord descending in elist; (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    errmax = elist[maxerr]
    if nrmax != 1:
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
    jupbn = last
    if last > limit // 2 + 2:
        jupbn = limit + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):     # insert errmax top-down
        isucc = iord[i]
        if errmax >= elist[isucc]:
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    iord[i - 1] = maxerr
    k = jbnd
    for _ in range(i, jbnd + 1):            # insert errmin bottom-up
        isucc = iord[k]
        if errmin < elist[isucc]:
            iord[k + 1] = last
            break
        iord[k + 1] = isucc
        k -= 1
    else:
        iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one epsilon-algorithm step; return (n, result, abserr, nres).

    qags calls it with n >= 3 only, so dqelg's n < 3 exit is left out.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            abserr = err2 + err3
            return n, res, max(abserr, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if (num // 2) * 2 == num else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib = ib + 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qags(f, a, b, epsabs, epsrel, limit):
    """dqagse: integral of f over the finite [a, b] to max(epsabs, epsrel*|I|).

    Returns (result, abserr, ier, last): ier is QUADPACK's flag (0 on
    success; 1 subdivision limit, 2 roundoff, 3 bad integrand behaviour,
    4 no convergence of the extrapolation, 5 probably divergent, 6
    invalid tolerances) and last the number of subintervals used.
    """
    epmach, uflow, oflow = _EPMACH, _UFLOW, _OFLOW
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b
    if epsabs <= 0.0 and epsrel < max(50.0 * epmach, 0.5e-28):
        return 0.0, 0.0, 6, 0

    # first approximation to the integral
    ier = ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * epmach * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, last

    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = oflow
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * epmach) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    summed = False                  # leave through label 115
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * epmach) * (
                abs(a2) + 1000.0 * uflow):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the
            # larger intervals first, if any is left
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not summed:
        # label 100: choose between the extrapolated and the summed result
        if abserr == oflow:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                return result, abserr, (ier - 1 if ier > 2 else ier), last
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # test on divergence; errsum > |area| first, so a zero area never
        # reaches the quotient (it can only get here with errsum > 0)
        if (errsum > abs(area) or 0.01 > result / area
                or result / area > 100.0):
            ier = 6
    if ier > 2:
        ier = ier - 1
    return result, abserr, ier, last
