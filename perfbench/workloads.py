"""The benchmark's workloads: fixed sequences of ``qma`` invocations.

Each invocation is one config file.  The workload seed is written into the
``[run] seed`` key of every generated config; nothing else about a config
depends on the seed, and ``qma`` receives nothing but the config path.
"""

import dataclasses


@dataclasses.dataclass(frozen=True)
class Invocation:
    label: str
    command: str
    n: int
    fields: tuple = ()
    params: tuple = ()

    def config_text(self, seed, out_dir):
        lines = ["[run]", f"command = {self.command}", f"n = {self.n}",
                 f"seed = {seed}"]
        for section, items in (("fields", self.fields), ("params", self.params)):
            if items:
                lines += ["", f"[{section}]"] + [f"{k} = {v}" for k, v in items]
        lines += ["", "[output]", f"dir = {out_dir}", "format = both"]
        return "\n".join(lines) + "\n"


QUARTIC = "normsq() + x0^4"
TILTED = "quadform([2, (0,1,0,0); (0,-1,0,0), 3])"
V_QUADRATIC = "x0^2 + 3/2"

WORKLOADS = {
    # non-quadratic exhaustion: co-area and star-shaped ray paths
    "levelset-rays": (
        Invocation("jensen-n2-quartic", "jensen", 2,
                   (("phi", QUARTIC), ("v", V_QUADRATIC)), (("r", "1.0"),)),
    ),
    # quadratic geometry: sphere and ball rules, large kernel batches
    "ball-kernels": (
        Invocation("jensen-n2-normsq", "jensen", 2,
                   (("phi", "normsq()"), ("v", V_QUADRATIC)), (("r", "1.0"),)),
        Invocation("boundary-n2", "boundary", 2,
                   (("phi", "normsq()"),), (("r", "1.0"),)),
        Invocation("lelong-n2", "lelong", 2,
                   (("u", "invshift(0.001)"),),
                   (("radii", "0.125, 0.25, 0.5, 1.0"),)),
        Invocation("cln-n2", "cln", 2,
                   (("u", QUARTIC), ("w", TILTED)), (("trials", "4"),)),
    ),
    # start-up dominated: import, parsing and the exact lane
    "short-checks": (
        Invocation("verify-n1", "verify", 1),
        Invocation("verify-n2", "verify", 2),
        Invocation("verify-n3", "verify", 3),
        Invocation("ma-n1", "ma", 1, (("u", QUARTIC),)),
        Invocation("ma-n2", "ma", 2, (("u", QUARTIC), ("w", TILTED))),
        Invocation("fundamental-n1", "fundamental", 1),
        Invocation("fundamental-n2", "fundamental", 2, (),
                   (("eps", "0.1, 0.01, 0.001, 0.0001"),)),
    ),
}
