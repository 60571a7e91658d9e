"""The reverse-indexed LSTM direction kernels that ``langmodel`` used before
the bw direction became the fw kernel on reversed time.

``reverse=True`` walks time from T-1 down to 0 and maps each step through a
``times`` list. Kept unchanged, with the masked sigmoid of that time, as the
reference the current kernels must match bit for bit.
"""

import numpy as np


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _lstm_forward(x, wx, wh, b, reverse: bool):
    B, T, _ = x.shape
    u = wh.shape[0]
    dtype = x.dtype
    i_g = np.zeros((B, T, u), dtype=dtype)
    f_g = np.zeros((B, T, u), dtype=dtype)
    g_g = np.zeros((B, T, u), dtype=dtype)
    o_g = np.zeros((B, T, u), dtype=dtype)
    c_s = np.zeros((B, T, u), dtype=dtype)
    tc_s = np.zeros((B, T, u), dtype=dtype)
    h_seq = np.zeros((B, T, u), dtype=dtype)
    times = range(T - 1, -1, -1) if reverse else range(T)
    h = np.zeros((B, u), dtype=dtype)
    c = np.zeros((B, u), dtype=dtype)
    for t in times:
        z = x[:, t] @ wx + h @ wh + b
        i = _sigmoid(z[:, :u])
        f = _sigmoid(z[:, u:2 * u])
        g = np.tanh(z[:, 2 * u:3 * u])
        o = _sigmoid(z[:, 3 * u:])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        i_g[:, t], f_g[:, t], g_g[:, t], o_g[:, t] = i, f, g, o
        c_s[:, t], tc_s[:, t], h_seq[:, t] = c, tc, h
    cache = {"x": x, "i": i_g, "f": f_g, "g": g_g, "o": o_g,
             "c": c_s, "tc": tc_s, "h": h_seq, "reverse": reverse}
    return h_seq, cache


def _lstm_backward(cache, wx, wh, d_h_seq):
    x = cache["x"]
    B, T, _ = x.shape
    u = wh.shape[0]
    dtype = x.dtype
    times = list(range(T - 1, -1, -1) if cache["reverse"] else range(T))
    d_x = np.zeros_like(x)
    d_wx = np.zeros_like(wx)
    d_wh = np.zeros_like(wh)
    d_b = np.zeros(4 * u, dtype=dtype)
    dh_carry = np.zeros((B, u), dtype=dtype)
    dc_carry = np.zeros((B, u), dtype=dtype)
    zeros = np.zeros((B, u), dtype=dtype)
    for idx in range(T - 1, -1, -1):
        t = times[idx]
        i = cache["i"][:, t]
        f = cache["f"][:, t]
        g = cache["g"][:, t]
        o = cache["o"][:, t]
        tc = cache["tc"][:, t]
        c_prev = cache["c"][:, times[idx - 1]] if idx > 0 else zeros
        h_prev = cache["h"][:, times[idx - 1]] if idx > 0 else zeros
        dh = d_h_seq[:, t] + dh_carry
        do = dh * tc
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_carry = dc * f
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=1)
        d_wx += x[:, t].T @ dz
        d_wh += h_prev.T @ dz
        d_b += dz.sum(axis=0)
        d_x[:, t] = dz @ wx.T
        dh_carry = dz @ wh.T
    return d_x, d_wx, d_wh, d_b
