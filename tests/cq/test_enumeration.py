"""Tests for CQ[m] / CQ[m, p] enumeration."""

from __future__ import annotations

import hashlib

import pytest

import repro.cq.enumeration as enumeration
from repro.cq.containment import are_equivalent
from repro.cq.enumeration import (
    count_feature_queries,
    enumerate_feature_queries,
    enumerate_unary_queries,
)
from repro.cq.query import CQ
from repro.cq.terms import Atom, Variable
from repro.data.database import Database
from repro.data.schema import EntitySchema, Schema
from repro.exceptions import QueryError

EDGE = EntitySchema.from_arities({"edge": 2})
UNARY = EntitySchema.from_arities({"R": 1, "S": 1})
RETAIL = EntitySchema.from_arities(
    {"contains": 2, "ordered": 2, "premium": 1}
)


class TestEnumerateFeatureQueries:
    def test_zero_atoms_is_trivial_feature(self):
        queries = enumerate_feature_queries(EDGE, 0)
        assert len(queries) == 1
        assert queries[0].atom_count() == 0

    def test_one_edge_atom_equivalence_classes(self):
        queries = enumerate_feature_queries(EDGE, 1)
        # eta(x) alone; edge(x,x); edge(x,y); edge(y,x); edge(y,y); edge(y,z)
        assert len(queries) == 6

    def test_unary_schema(self):
        queries = enumerate_feature_queries(UNARY, 1)
        # trivial; R(x); S(x)  — R(y)/S(y) fold into the trivial query's
        # core?  No: ∃y R(y) is NOT implied by eta(x); it stays.
        forms = {str(q) for q in queries}
        assert "q(x) :- eta(x)" in forms
        assert any("R(x)" in f for f in forms)
        assert any("R(v0)" in f for f in forms)
        assert len(queries) == 5

    def test_every_query_contains_entity_atom(self):
        for q in enumerate_feature_queries(EDGE, 2):
            assert any(a.relation == "eta" for a in q.atoms)

    def test_all_pairwise_inequivalent(self):
        queries = enumerate_feature_queries(EDGE, 2)
        for i, left in enumerate(queries):
            for right in queries[i + 1:]:
                assert not are_equivalent(left, right), (left, right)

    def test_isomorphism_dedupe_is_coarser(self):
        equivalence = enumerate_feature_queries(EDGE, 2)
        isomorphism = enumerate_feature_queries(
            EDGE, 2, dedupe="isomorphism"
        )
        assert len(isomorphism) >= len(equivalence)

    def test_atom_bound_respected(self):
        for q in enumerate_feature_queries(EDGE, 2):
            assert q.atom_count() <= 2

    def test_occurrence_bound_respected(self):
        queries = enumerate_feature_queries(EDGE, 2, max_occurrences=1)
        for q in queries:
            assert q.max_variable_occurrences() <= 1
        # x may appear at most once in the body: edge(x,y),edge(y,z) is out.
        assert all(
            q.atom_count() <= 2 for q in queries
        )
        assert len(queries) < len(enumerate_feature_queries(EDGE, 2))

    def test_custom_entity_symbol(self):
        schema = EntitySchema.from_arities(
            {"edge": 2}, entity_symbol="item"
        )
        queries = enumerate_feature_queries(
            schema, 1, entity_symbol="item"
        )
        assert all(
            any(a.relation == "item" for a in q.atoms) for q in queries
        )

    def test_negative_atoms_rejected(self):
        with pytest.raises(QueryError):
            enumerate_feature_queries(EDGE, -1)

    def test_bad_dedupe_rejected(self):
        with pytest.raises(QueryError):
            enumerate_feature_queries(EDGE, 1, dedupe="nope")

    def test_count_helper(self):
        assert count_feature_queries(EDGE, 1) == 6

    def test_entity_symbol_defaults_to_schema_symbol(self):
        schema = EntitySchema.from_arities(
            {"edge": 2}, entity_symbol="item"
        )
        queries = enumerate_feature_queries(schema, 1)
        # item(x) alone; edge(x,x); edge(x,y); edge(y,x); edge(y,y);
        # edge(y,z) -- no atom over an "eta" the schema does not have.
        assert len(queries) == 6
        assert all(
            q.mentioned_relations() <= {"edge", "item"} for q in queries
        )
        assert [str(q) for q in queries] == [
            str(q)
            for q in enumerate_feature_queries(
                schema, 1, entity_symbol="item"
            )
        ]

    def test_count_helper_uses_schema_entity_symbol(self):
        schema = EntitySchema.from_arities(
            {"edge": 2}, entity_symbol="item"
        )
        assert count_feature_queries(schema, 1) == 6

    def test_plain_schema_keeps_default_entity_symbol(self):
        queries = enumerate_feature_queries(Schema.from_arities({"E": 2}), 1)
        assert all(Atom("eta", (Variable("x"),)) in q.atoms for q in queries)


class TestEnumerateUnaryQueries:
    def test_free_variable_occurs(self):
        schema = Schema.from_arities({"E": 2})
        for q in enumerate_unary_queries(schema, 2):
            assert Variable("x") in q.variables

    def test_single_atom_pool(self):
        schema = Schema.from_arities({"E": 2})
        queries = enumerate_unary_queries(schema, 1)
        # E(x,x), E(x,y), E(y,x): x must occur.
        assert len(queries) == 3

    def test_requires_positive_max_atoms(self):
        schema = Schema.from_arities({"E": 2})
        with pytest.raises(QueryError):
            enumerate_unary_queries(schema, 0)

    def test_no_entity_atom_enforced(self):
        schema = Schema.from_arities({"E": 2})
        for q in enumerate_unary_queries(schema, 1):
            assert all(a.relation == "E" for a in q.atoms)

    def test_growth_with_atoms(self):
        schema = Schema.from_arities({"E": 2})
        assert len(enumerate_unary_queries(schema, 2)) > len(
            enumerate_unary_queries(schema, 1)
        )


# ----------------------------------------------------------------------
# Exact-output pins
# ----------------------------------------------------------------------

SCHEMAS = {
    "edge": EDGE,
    "RS": UNARY,
    "EG": EntitySchema.from_arities({"E": 2, "G": 1}),
    "TU": EntitySchema.from_arities({"T": 3, "U": 1}),
}
DEDUPE = {"equ": "equivalence", "iso": "isomorphism"}

#: The single query ``q(x) :- eta(x)``.
TRIVIAL = "e349efaadcdf2961aeb04e7e8e5a197300d5d94b4c53f522332b03c8fa796c11"

#: (schema, m, p, dedupe) -> (count, sha256 of the newline-joined query
#: strings).  Recorded from the unpruned enumeration, which visited every
#: ordering and renaming of each atom list.
FEATURE_PINS = {
    ("edge", 0, None, "equ"): (1, TRIVIAL),
    ("edge", 0, None, "iso"): (1, TRIVIAL),
    ("edge", 0, 1, "equ"): (1, TRIVIAL),
    ("edge", 0, 1, "iso"): (1, TRIVIAL),
    ("edge", 0, 2, "equ"): (1, TRIVIAL),
    ("edge", 0, 2, "iso"): (1, TRIVIAL),
    ("edge", 1, None, "equ"): (6, "5fe1d2c84f73a7bbdccd452632e74b5ed0654e3b7082d4fea6809b2f4dac533a"),
    ("edge", 1, None, "iso"): (7, "477a445cbfff41dcd3d5b05c0e958f87d5564303e9a364b9e7e908d9f1182d8a"),
    ("edge", 1, 1, "equ"): (4, "665183200dde226ab67340d2325c76f5c950a8ad2ce52eaa0df8bd10065663a8"),
    ("edge", 1, 1, "iso"): (5, "c72ad4ef0b448203315ff4dabcd09be76e2f111f0bed835693e505c8c2c78d7b"),
    ("edge", 1, 2, "equ"): (6, "5fe1d2c84f73a7bbdccd452632e74b5ed0654e3b7082d4fea6809b2f4dac533a"),
    ("edge", 1, 2, "iso"): (7, "477a445cbfff41dcd3d5b05c0e958f87d5564303e9a364b9e7e908d9f1182d8a"),
    ("edge", 2, None, "equ"): (21, "838316296281d11037f9ded014770a8f12cbc4b67f91510b877da0b5d471a4f8"),
    ("edge", 2, None, "iso"): (45, "52f70cb2eaff73c0fea7f1b48040ed90a063659cbe0f96b4e6da41b5daa3fcaf"),
    ("edge", 2, 1, "equ"): (4, "665183200dde226ab67340d2325c76f5c950a8ad2ce52eaa0df8bd10065663a8"),
    ("edge", 2, 1, "iso"): (12, "676a766de1f912c8035364b851bd5d192d26040c8263e07e1979eec48987a5b7"),
    ("edge", 2, 2, "equ"): (18, "7c55208c5be32175fed60b6510e6b4519e0ef3a61b20061a20be962e2b46e7ad"),
    ("edge", 2, 2, "iso"): (38, "60fe6064915922200c1d82b68dea88cda14a39b0473a190f8d0bcf69ab141f25"),
    ("RS", 0, None, "equ"): (1, TRIVIAL),
    ("RS", 0, None, "iso"): (1, TRIVIAL),
    ("RS", 0, 1, "equ"): (1, TRIVIAL),
    ("RS", 0, 1, "iso"): (1, TRIVIAL),
    ("RS", 0, 2, "equ"): (1, TRIVIAL),
    ("RS", 0, 2, "iso"): (1, TRIVIAL),
    ("RS", 1, None, "equ"): (5, "b278c183d6ef244eb5130b9e435794f88380a4b31c711dc061dabedb8f65791e"),
    ("RS", 1, None, "iso"): (6, "78aba0e8641793592ed8cbbf320e3d3329242bda8e414381460fbb3af62be7a1"),
    ("RS", 1, 1, "equ"): (5, "b278c183d6ef244eb5130b9e435794f88380a4b31c711dc061dabedb8f65791e"),
    ("RS", 1, 1, "iso"): (6, "78aba0e8641793592ed8cbbf320e3d3329242bda8e414381460fbb3af62be7a1"),
    ("RS", 1, 2, "equ"): (5, "b278c183d6ef244eb5130b9e435794f88380a4b31c711dc061dabedb8f65791e"),
    ("RS", 1, 2, "iso"): (6, "78aba0e8641793592ed8cbbf320e3d3329242bda8e414381460fbb3af62be7a1"),
    ("RS", 2, None, "equ"): (12, "33a917a7c7d840c2b636504946f379894e7e0226c6707a2cefa570e1164a1351"),
    ("RS", 2, None, "iso"): (22, "90ecb291358ce513974c3cb6faf61ebfd12dba8d15f4f795dda95942cd013552"),
    ("RS", 2, 1, "equ"): (8, "d1dc3c4c6bf4b777f8dd8edb16a16bdf339c5380fe6d551c22371cb5b73e5d54"),
    ("RS", 2, 1, "iso"): (18, "e1adf5434a5361ade6c669ff74d419d8d284fa9e972bb13c55ff9a98b1305c1a"),
    ("RS", 2, 2, "equ"): (12, "33a917a7c7d840c2b636504946f379894e7e0226c6707a2cefa570e1164a1351"),
    ("RS", 2, 2, "iso"): (22, "90ecb291358ce513974c3cb6faf61ebfd12dba8d15f4f795dda95942cd013552"),
    ("EG", 0, None, "equ"): (1, TRIVIAL),
    ("EG", 0, None, "iso"): (1, TRIVIAL),
    ("EG", 0, 1, "equ"): (1, TRIVIAL),
    ("EG", 0, 1, "iso"): (1, TRIVIAL),
    ("EG", 0, 2, "equ"): (1, TRIVIAL),
    ("EG", 0, 2, "iso"): (1, TRIVIAL),
    ("EG", 1, None, "equ"): (8, "3a2d9081bfe6bf73b3ee70e3f107bd49b09a5ca7542dd4f02b315a378ff931bf"),
    ("EG", 1, None, "iso"): (9, "768dfac09e88214596bdba70bcd9288cac6053ff244af1eb9a921e28b6c43df3"),
    ("EG", 1, 1, "equ"): (6, "851eb53c933043598b632d098fa9a35c657ebd969863586ca7dde07b131514df"),
    ("EG", 1, 1, "iso"): (7, "ef8597fc73a55fe0f077953c19912b882b3d85f034602f900503f869cc58239f"),
    ("EG", 1, 2, "equ"): (8, "3a2d9081bfe6bf73b3ee70e3f107bd49b09a5ca7542dd4f02b315a378ff931bf"),
    ("EG", 1, 2, "iso"): (9, "768dfac09e88214596bdba70bcd9288cac6053ff244af1eb9a921e28b6c43df3"),
    ("EG", 2, None, "equ"): (39, "21e0cc7d772a2e3943fd686b0c5bbffa6ece15cc4fc903f2c33a790cd93fb5d3"),
    ("EG", 2, None, "iso"): (67, "b0ff3f3ab37aa36e2adf7ff15fe1fb95677da09e328122d6a76d820aff7c26ba"),
    ("EG", 2, 1, "equ"): (10, "7b49ff70c06d454541f78a124cee23194490ee073c0c977c6591303cf26e1682"),
    ("EG", 2, 1, "iso"): (22, "8090baac0af78718f2e93007fdcf8621ca19d17b28ba567984de5563af8545cd"),
    ("EG", 2, 2, "equ"): (34, "3ad031fdd46013d4f8c2e08a16c3260d819a824ffe36dad8677bb341bd4736ec"),
    ("EG", 2, 2, "iso"): (58, "71ad5f94607a201f0ed888ad1b9f1136b0a6489832e4851d0f9900f618b80164"),
    ("TU", 0, None, "equ"): (1, TRIVIAL),
    ("TU", 0, None, "iso"): (1, TRIVIAL),
    ("TU", 0, 1, "equ"): (1, TRIVIAL),
    ("TU", 0, 1, "iso"): (1, TRIVIAL),
    ("TU", 0, 2, "equ"): (1, TRIVIAL),
    ("TU", 0, 2, "iso"): (1, TRIVIAL),
    ("TU", 1, None, "equ"): (18, "4ff98f55d9f2d7edd62b358599eb6647f6b6613cf2f7b0c5a8ecbc2436f968bd"),
    ("TU", 1, None, "iso"): (19, "ade69907ba5778b6119d3901debea5ab0ecd8485aba3cd70a950becc283a638e"),
    ("TU", 1, 1, "equ"): (7, "323a37777541df49e09140841f6f6f5e44b23c3eb6fee0e67cac973a620b7e8a"),
    ("TU", 1, 1, "iso"): (8, "943a85dd8414fa60124a0fd1380027b84a1c4f653626f4f51327561dc0c13591"),
    ("TU", 1, 2, "equ"): (16, "4daa69499735ea837b1a734524cea9e4a1c186cebb888594c4f189e4b4d47a40"),
    ("TU", 1, 2, "iso"): (17, "b9ed81ad03a4d199860d0670696d7c3145ad6fd6d2de4b28a12ff85987ff85e6"),
    ("TU", 2, None, "equ"): (409, "189a18d455da9799e226fea180bb4cfb05b28198e70e1176610b7ad9c70a909e"),
    ("TU", 2, None, "iso"): (567, "69f225db44e526359dfc476c6545f1b4f6b31c1f7a508addcea76a9939019818"),
    ("TU", 2, 1, "equ"): (12, "9e3faa380ab9884472167be8e85b86ec3a4856a04f062d73a67e21924857b54a"),
    ("TU", 2, 1, "iso"): (26, "c4f701066b196645a9aa9d0888cd3ffa62dc7749482bc365921d3744e6cb393b"),
    ("TU", 2, 2, "equ"): (212, "1aba259564423b5e77375153b74e8da0e8bd560c132a0e62c2c121bc299d5151"),
    ("TU", 2, 2, "iso"): (295, "61eb64749b4c43d0e4b99d6d15c604ca8879c7ea756dfd99a39605d8d514409c"),
}
UNARY_PINS = {
    ("edge", 1, None, "equ"): (4, "66dfebcfca6adb08725cc7adac9aa5be4e723eff7dd5849be076b11a3794f226"),
    ("edge", 1, None, "iso"): (4, "66dfebcfca6adb08725cc7adac9aa5be4e723eff7dd5849be076b11a3794f226"),
    ("edge", 1, 1, "equ"): (3, "717d7225ffd2fadb434c6e13e49c6fe6383c6779b6453366f38179089d936ade"),
    ("edge", 1, 1, "iso"): (3, "717d7225ffd2fadb434c6e13e49c6fe6383c6779b6453366f38179089d936ade"),
    ("edge", 1, 2, "equ"): (4, "66dfebcfca6adb08725cc7adac9aa5be4e723eff7dd5849be076b11a3794f226"),
    ("edge", 1, 2, "iso"): (4, "66dfebcfca6adb08725cc7adac9aa5be4e723eff7dd5849be076b11a3794f226"),
    ("edge", 2, None, "equ"): (22, "2a338f5fbe5493713270de3a7b9fe5223706528d895a731bf2856ea27b4e2a83"),
    ("edge", 2, None, "iso"): (33, "889bdc828413087089281449ac5158459b10b99e14328d0014c195f86581bd7f"),
    ("edge", 2, 1, "equ"): (6, "c6bd3863e4cf0fdf8e2e33bfd16126fc0dc53a6cf0ab1a95372edad4d54f57ba"),
    ("edge", 2, 1, "iso"): (9, "70148a4beaf75e341183c8c0ec47425aedb05752abe08ea0c9acd54764e599ac"),
    ("edge", 2, 2, "equ"): (19, "4d7691cae8cccb3a1a45634cb28786d8bf8369649394515738181852befd08f4"),
    ("edge", 2, 2, "iso"): (28, "8c1c5a43fa17b185dab260f2339ec9cec5aa2b720dc322596aed87277767757f"),
    ("RS", 1, None, "equ"): (3, "952827f595204916d2b173735f4ff30fae73064499dd46e5d0b02f84066e8770"),
    ("RS", 1, None, "iso"): (3, "952827f595204916d2b173735f4ff30fae73064499dd46e5d0b02f84066e8770"),
    ("RS", 1, 1, "equ"): (3, "952827f595204916d2b173735f4ff30fae73064499dd46e5d0b02f84066e8770"),
    ("RS", 1, 1, "iso"): (3, "952827f595204916d2b173735f4ff30fae73064499dd46e5d0b02f84066e8770"),
    ("RS", 1, 2, "equ"): (3, "952827f595204916d2b173735f4ff30fae73064499dd46e5d0b02f84066e8770"),
    ("RS", 1, 2, "iso"): (3, "952827f595204916d2b173735f4ff30fae73064499dd46e5d0b02f84066e8770"),
    ("RS", 2, None, "equ"): (12, "f09493863fc8cd57f87904bf296d8ef75e733517167131eb11b9d56db94ff1b7"),
    ("RS", 2, None, "iso"): (15, "1b85be0005c568ff56754929a59a069e695485fe5e423ef03d97f24571333a24"),
    ("RS", 2, 1, "equ"): (9, "aede0b21862cbb77a531747caceaa3edce687a12a6d2b5f0336527711c3c8fda"),
    ("RS", 2, 1, "iso"): (12, "cb3a71fef4351a27d93ac4e9643c2f8bf32acdf4949e72a94f18cc908f7aa362"),
    ("RS", 2, 2, "equ"): (12, "f09493863fc8cd57f87904bf296d8ef75e733517167131eb11b9d56db94ff1b7"),
    ("RS", 2, 2, "iso"): (15, "1b85be0005c568ff56754929a59a069e695485fe5e423ef03d97f24571333a24"),
    ("EG", 1, None, "equ"): (5, "4a36ad2cb845ecdd08ca5f5078c10b2616b9b63bbbe9e2a45969484cb7f82195"),
    ("EG", 1, None, "iso"): (5, "4a36ad2cb845ecdd08ca5f5078c10b2616b9b63bbbe9e2a45969484cb7f82195"),
    ("EG", 1, 1, "equ"): (4, "52aed74bab003b37569888893e80f63c89305b944436762e35f0b49acc9de0e9"),
    ("EG", 1, 1, "iso"): (4, "52aed74bab003b37569888893e80f63c89305b944436762e35f0b49acc9de0e9"),
    ("EG", 1, 2, "equ"): (5, "4a36ad2cb845ecdd08ca5f5078c10b2616b9b63bbbe9e2a45969484cb7f82195"),
    ("EG", 1, 2, "iso"): (5, "4a36ad2cb845ecdd08ca5f5078c10b2616b9b63bbbe9e2a45969484cb7f82195"),
    ("EG", 2, None, "equ"): (36, "383b063a0868fc04d3af611aafb3fa4588fc791858311ca16a3adc9c43417869"),
    ("EG", 2, None, "iso"): (48, "da631781f030a5eb5e1dfe4d39352e33c22f851c652f128382b92f3ad93978f9"),
    ("EG", 2, 1, "equ"): (12, "6301d9761267601be67250940b7d0e0f07bb1ef51b8ca13f1f170ebd540467d3"),
    ("EG", 2, 1, "iso"): (16, "0010b00f26105e9088d15998b858f82c50cb079eb5ad12b503a7fb1da1f6280b"),
    ("EG", 2, 2, "equ"): (32, "01dffdb25825a63824052f05ac5aec07cf8fbde9d53789785601b5459984ec17"),
    ("EG", 2, 2, "iso"): (42, "8502a0384c1298afb8f68cf822797330ea2ccc1d77acc095a00988b27abf8d53"),
    ("TU", 1, None, "equ"): (12, "9a6a87058d9e8b286f83e50134ca39ad7e3660917d30138d552636d0bd2fa423"),
    ("TU", 1, None, "iso"): (12, "9a6a87058d9e8b286f83e50134ca39ad7e3660917d30138d552636d0bd2fa423"),
    ("TU", 1, 1, "equ"): (5, "2a5bfec6f80f62b47ce77880f46a2bb53e0712a507ac93bf3e0669cdbdcf1271"),
    ("TU", 1, 1, "iso"): (5, "2a5bfec6f80f62b47ce77880f46a2bb53e0712a507ac93bf3e0669cdbdcf1271"),
    ("TU", 1, 2, "equ"): (11, "9217c3fa6e7b9ade2ed4f60d01b534017e54ea2d5baecc06b4240254091cd8f1"),
    ("TU", 1, 2, "iso"): (11, "9217c3fa6e7b9ade2ed4f60d01b534017e54ea2d5baecc06b4240254091cd8f1"),
    ("TU", 2, None, "equ"): (341, "0eacc5d084b9c04f347add459b5e7869849583479406859e4f4be3832345976a"),
    ("TU", 2, None, "iso"): (432, "c46cb3bcfe74eaefad6a35423504390a4e9a46db617ccc3d402cea5f7b650f33"),
    ("TU", 2, 1, "equ"): (15, "ce0f3578c9e6ce662c607516a8c644326d8bc075637d1d729e1dc2e677a10b72"),
    ("TU", 2, 1, "iso"): (20, "aafe382f43803f84ef66cf4e86c09ca057e50e9a194cdf0e8bb9d15734dc9de0"),
    ("TU", 2, 2, "equ"): (184, "0dbc2e423f53d207941b6513105289f15c2183e21a9dfae278417df003a918f5"),
    ("TU", 2, 2, "iso"): (231, "cb3cf873031595492d7098502577572382c9a8cac3e228dccee4d6b96f07520e"),
}


def _pin(queries):
    text = "\n".join(map(str, queries))
    return len(queries), hashlib.sha256(text.encode()).hexdigest()


class TestExactOutputPins:
    @pytest.mark.parametrize("key", sorted(FEATURE_PINS, key=str))
    def test_feature_queries(self, key):
        name, m, p, dedupe = key
        queries = enumerate_feature_queries(
            SCHEMAS[name], m, max_occurrences=p, dedupe=DEDUPE[dedupe]
        )
        assert _pin(queries) == FEATURE_PINS[key]

    @pytest.mark.parametrize("key", sorted(UNARY_PINS, key=str))
    def test_unary_queries(self, key):
        name, m, p, dedupe = key
        queries = enumerate_unary_queries(
            SCHEMAS[name], m, max_occurrences=p, dedupe=DEDUPE[dedupe]
        )
        assert _pin(queries) == UNARY_PINS[key]

    def test_retail_cq3(self):
        assert _pin(enumerate_feature_queries(RETAIL, 3)) == (
            1224,
            "2da7303fe56ac9ca6ed15923b52f255706f5fef44ac216742fbb95521f2867cf",
        )

    def test_ternary_prefix_over_canonical_form_guard(self):
        # T(v0,v1,v2), T(v3,v4,v5), T(v6,v7,v8) has 9 existential
        # variables, but canonical_form's guard counts orderings (at most
        # 8!), and its three classes of three need 3!·3!·3! = 216: the
        # list is canonicalized and pruned like any other.
        queries = enumerate_feature_queries(
            EntitySchema.from_arities({"T": 3}), 3, max_occurrences=1
        )
        assert _pin(queries) == (
            5,
            "8f0f42b7b0377658f8202968df1d82177520d1ac58cf5596651888d9f25b71e7",
        )

    def test_list_over_canonical_form_guard_is_visited_unpruned(self):
        # Six disjoint edges E(v0,v1), ..., E(v10,v11) need 6!·6! orderings,
        # over canonical_form's guard of 8!; their core E(v0,v1) needs one.
        queries = enumerate_feature_queries(
            EntitySchema.from_arities({"E": 2}), 6, max_occurrences=1
        )
        assert _pin(queries) == (
            4,
            "409421653a0f264eee2f85948315fe9be7b2aef364effab92237ef4552c07749",
        )

    def test_core_with_nine_existentials_in_three_atoms(self):
        # R(v0,v1,v2), S(v3,v4,v5), T(v6,v7,v8) is a core with 9
        # existential variables, each alone in its class: one ordering
        # for canonical_form to try.
        queries = enumerate_feature_queries(
            EntitySchema.from_arities({"R": 3, "S": 3, "T": 3}),
            3,
            max_occurrences=1,
        )
        assert _pin(queries) == (
            44,
            "0c9339347b086ad2ecadb3d9e9f27fb88d3221e733834e6f43483a63369d2e0c",
        )
        assert max(len(q.existential_variables) for q in queries) == 9
        for i, left in enumerate(queries):
            for right in queries[i + 1:]:
                assert not are_equivalent(left, right), (left, right)

    def test_core_with_nine_existentials_in_one_atom(self):
        queries = enumerate_feature_queries(
            EntitySchema.from_arities({"R": 9}), 1
        )
        # The trivial query, then one query per argument pattern of R over
        # x and fresh variables: the Bell number B(10) = 115,975.
        assert _pin(queries) == (
            115976,
            "c1f37456cb0f543fc74152299128f0a27acc0eec94e708bce0768d3f80400db3",
        )
        # eta(x), R(s) and eta(x), R(t) are equivalent iff homomorphisms
        # fixing x map R(s) onto R(t) and back, that is, iff s and t have
        # the same equality pattern with x in the same places.  Distinct
        # patterns thus make the queries pairwise inequivalent.
        x = Variable("x")
        patterns = set()
        for query in queries[1:]:
            (atom,) = [a for a in query.atoms if a.relation == "R"]
            arguments = atom.arguments
            patterns.add(
                tuple(-1 if v == x else arguments.index(v) for v in arguments)
            )
        assert len(patterns) == len(queries) - 1


class TestEnumerationWork:
    #: ``core_of`` calls of the unpruned enumeration of retail's CQ[3].
    UNPRUNED_CORE_CALLS = 12589

    def test_retail_cq3_core_calls(self, monkeypatch):
        calls = []
        core_of = enumeration.core_of

        def counting_core_of(query):
            calls.append(query)
            return core_of(query)

        monkeypatch.setattr(enumeration, "core_of", counting_core_of)
        assert len(enumerate_feature_queries(RETAIL, 3)) == 1224
        assert len(calls) <= self.UNPRUNED_CORE_CALLS // 3
        assert len(calls) == 2372

    def test_retail_cq3_builds_no_database(self, monkeypatch):
        # Cores are found on atom tuples; a retraction search over
        # canonical databases builds 10,057 here.
        built = []
        init = Database.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Database, "__init__", counting_init)
        assert len(enumerate_feature_queries(RETAIL, 3)) == 1224
        assert len(built) == 0

    def test_retail_cq3_canonical_forms(self, monkeypatch):
        # One form per visited list, reused when the list is its own
        # core; a second form per registered list makes 9,245.
        forms = []
        canonical_form = CQ.canonical_form

        def counting_canonical_form(query):
            forms.append(query)
            return canonical_form(query)

        monkeypatch.setattr(CQ, "canonical_form", counting_canonical_form)
        assert len(enumerate_feature_queries(RETAIL, 3)) == 1224
        assert len(forms) <= 7895
