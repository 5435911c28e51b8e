"""Golden digests of the catalog-driven CLI outputs.

The sha256 of `detect`, `detect --all`, `audit --json` and a forced
constructive run (`--base-limit 6`) is pinned for seeded
graphs from both regimes, so any change to detection order, witness
content or reduction traces shows up as a digest mismatch.  The bridge
graph is the one input whose reduction contracts an edge, because deleting
its cut vertex would disconnect it.  The 11-gon bipyramid is the one input
reaching the discharging rule R2: each hub has degree 11 and only weak
neighbours.  The double pocket (two K4 pockets glued on the edge 0-1) is
the one input where G minus a separating edge's endpoints has three
components, so its split component is a union of two of them.
"""

import hashlib

import pytest

from conftest import bridge, cube, double_pocket, glue_pocket
from psc import cli
from psc import embedding as emb
from psc import generators as gen

COMMANDS = (
    ["detect"],
    ["detect", "--all"],
    ["audit", "--json"],
    ["color", "--mode", "constructive", "--base-limit", "6"],
)


def golden_graphs():
    large = gen.gen_corpus(3, (20, 60), 9, 101)
    small = gen.gen_corpus(2, (12, 50), 3, 102, delta_max=6)
    pocket = glue_pocket(gen.gen_stacked_triangulation(22, 3), 0, 1)
    rows = [f"{i}: {(i + 1) % 11} 11 {(i - 1) % 11} 12" for i in range(11)]
    rows += ["11: " + " ".join(map(str, range(11))),
             "12: " + " ".join(map(str, range(10, -1, -1)))]
    bipyramid11 = emb.from_pg("\n".join(["n 13", *rows, ""]))
    return {"large0": large[0], "large1": large[1], "large2": large[2],
            "small0": small[0], "small1": small[1], "pocket": pocket,
            "cube": cube(), "bridge": bridge(), "bipyramid11": bipyramid11,
            "double_pocket": double_pocket()}


def digests(g, tmp_path):
    path = tmp_path / "g.pg"
    path.write_text(emb.to_pg(g))
    out = []
    for i, argv in enumerate(COMMANDS):
        dest = tmp_path / f"{i}.out"
        code = cli.main([*argv, str(path), "-o", str(dest)])
        body = dest.read_bytes() if dest.exists() else b""
        out.append(hashlib.sha256(f"exit={code}\n".encode() + body).hexdigest())
    return tuple(out)


# graph -> sha256 of (detect, detect --all, audit --json, forced color)
GOLDEN = {
    "bipyramid11": (
        "b940c5ab504eb04e6467575468dc9e76a3a3f49545a0aaf05db0b45913bcd397",
        "b940c5ab504eb04e6467575468dc9e76a3a3f49545a0aaf05db0b45913bcd397",
        "c4019eea3f9b25edfa932a6dcef4a26ef630fe2247a7e382693ece0823b3ce27",
        "97cde0c52dfdb0294d9942a6b3a8179f9bc946c79d87a40a97a517afe39c75c7",
    ),
    "bridge": (
        "d01041f61681bb7ff09d601f608f6aa68ad4aac4da983acf8bbdf8f81c804ecd",
        "33fdc53af042e0eef8a96efeee0f183301589800741e9ecca53f9521d0a87b25",
        "cc00cb87300cee169b8cee887f337ec53c07cc3902ea2026fc3dbbedc09e4404",
        "58eb0b80185d3e35aabfeeb72b6840771905e78037d943c9912426ff90763c3f",
    ),
    "cube": (
        "74ba2f2f2155c342f00cf7d8fb96493fedf9c64cd889e9e94d372edd97f59891",
        "44411337573cc5269c9fad03568f892dd7e97f371c38a95c40a63c5da7084392",
        "d4f8959eab62885d23c166df174bdfc4c2d19f81f1825d68f75d327c0a7960eb",
        "507d7a376ee07d82f0c5bad141c0f671ba5fe2dd0a5c50e9576446658333701c",
    ),
    "double_pocket": (
        "1060f1018cdcf93e80f53c18470170451f2e8cb2402d4c275efc0fc6f3ddb534",
        "cb43ef77d12ba914b222cf54c0a4d046ba735e144a00b03e1cbf9e3caef00da9",
        "e395d9f2b1f5485de3c91c1e70f0b3739f8bcc00f4aac37ff0c74537f1efb8e7",
        "6c2ee6b467cd4a495c2f6e3752e1e1520ad6e0036c57451dfa66e71a9039c210",
    ),
    "large0": (
        "be0c31b25023f5843da2097173c6b4394fab7491ae922273a3c0dff390ac8a35",
        "25f54b69f78dc8da998db692c4dd01fb007abd28e882710ce86f5406932ebe2d",
        "3db154b84eb2db617439e9bd4d8fcc80be96241c83d365594c1c1cfaa2356508",
        "8ef00f384dead5202e7f9575aebd18fd3f3a2a3922f5a10bcfac01b688d49aac",
    ),
    "large1": (
        "185582d855e1b21530af95a3c571c77bc45c620ededb7872a5771f6407c87c20",
        "ea5ef02fa76aabc53eea320e2733b8fffddc0679d23570e014fac60ff86ffb63",
        "567ce53c506e10ebd6c0d18b8a90670ffb51798cb8db24aa2d9b58209b286c4a",
        "28095c24126105d41738ee4acfce2e508822b5a05d6c4c3aea8d1869ab0dc038",
    ),
    "large2": (
        "07763bf47aa88e6eec65d5b3c2602493a0de98594af367e55bc263a963d88dca",
        "a93b2baa10b60423f6781a177ffa94ba474d30cdb2bd28b65481e52706c40bfb",
        "0b95b69f9f7e5966767a1aff23e303fd5a57f4e01fac77e0c3aab249d88c271a",
        "fa10b0101d30f39d54c0f1fa96a8feff830bd4995a36872fb754ce76d47a2539",
    ),
    "pocket": (
        "7a1b68c3151ecae149fe66b99f55e5c60ea7837a15028f42325e4cc3ccf1f212",
        "403df506ac7e4e10a5a1658dcabd5fde0ad26e981cc734ddc085569e6c00fc0a",
        "5f686ae9b31b68863a16735349e12e341886470714e857c3694efb6ee2585675",
        "a4bc908acc8db468dbd3a9c44689087de0f2d7a15156ea268355aaa47a5e20df",
    ),
    "small0": (
        "297779fd6eb75b3e2755dda4e3592cf118264a6edea7ac1e9ed88d1772336e3a",
        "be848a33e318c657d9f1a15fff37049a7f9230cc3e7474a2aa6248c918c2f49e",
        "394e356c8768f3345a9dfce10efb7181589b1980daabca62f3c6777aa8a27ddf",
        "59ccd8b1b63e2b35bdcccc89f4b2b6bf2621b92c2e2466a8138a5679956709ed",
    ),
    "small1": (
        "82faa61b19d87e1073e24ae062ec051e8867114677a7b8e1bbd4715c5fabce4c",
        "a9222e25d9d30919f58a5876fccb5cae6239db0af6fb2eb9bb50e6dec874fcf4",
        "0925c7f918bbcc1454410e2132d9d3f4b33325f4aeb9c589c3fa46b779c1d3d6",
        "4015ff96c693a134fc26f9b0e36233ef0b10908a71a36fc4809a6e9c3f8d5c4b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_outputs(name, tmp_path):
    assert digests(golden_graphs()[name], tmp_path) == GOLDEN[name]
