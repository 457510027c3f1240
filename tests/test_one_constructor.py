"""Every group the library builds goes through ``FiniteGroup``'s constructor.

The constructor is wrapped so that it records each instance it builds.
The five fixtures are parsed afresh under the wrapper, so that no cached
loop groupoid or homotopy predates it, and every group that the loop-space
functions return must be one of the recorded instances.
"""

from conftest import FIXTURE_NAMES, FIXTURES_DIR

from xmodloop.documents import parse_xmod
from xmodloop.exactseq import exact_sequence, fibration_psi
from xmodloop.groupoids import homotopy_at, vertex_group
from xmodloop.groups import FiniteGroup
from xmodloop.loop import loop_gpd_xmod, pi_loop, theta


def test_every_returned_group_is_built_by_the_constructor(monkeypatch):
    built = []  # the instances themselves, kept alive so that no id is reused
    init = FiniteGroup.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(FiniteGroup, "__init__", recording)
    returned = []
    for name in FIXTURE_NAMES:
        x = parse_xmod((FIXTURES_DIR / f"{name}.json").read_text(encoding="utf-8"))
        gxm = loop_gpd_xmod(x)
        returned += [x.M, x.P, gxm.base.group, gxm.fibre]
        for a in x.P.elements:
            f = theta(x, a)
            returned += [f.source.base.group, f.source.fibre, f.target.base.group,
                         f.target.fibre]
            loop = pi_loop(x, a)
            returned += [loop.pi1, loop.pi2]
            sequence = exact_sequence(x, a)
            returned += [*sequence.terms, sequence.coinvariants]
        returned += [vertex_group(gxm.base, obj) for obj in gxm.base.objects]
        for obj in gxm.base.objects:
            h = homotopy_at(gxm, obj)
            returned += [h.pi1, h.pi2]
        fibre = fibration_psi(x).fibre
        returned += [fibre.base.group, fibre.fibre]
    recorded = set(map(id, built))
    assert [g for g in returned if id(g) not in recorded] == []
