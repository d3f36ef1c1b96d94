import contextlib
import errno
import hashlib
import io
import json
import os
import random
import re
import socket
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from helpers_oracles import NEAR_RATIONALS, cosh_series, exp_t_squared, reference_parser
from hypothesis import example, given
from hypothesis import strategies as st

import blowup_series

from blowup_series import blowup, cli, commands, derived, verify
from blowup_series.algebra import XPoly, parse_rational
from blowup_series.blowup import GenerationError
from blowup_series.cli import MAX_ORDER, main
from blowup_series.series import TSeries, first_difference
from blowup_series.verify import CATALOG_IDS

#: sha256 of the `verify --order 28 --bivariate-order 16` report lines without "ms"
VERIFY_28_SHA256 = "74cc7058378474671c9e39e71712ee53943b95c961649bbe8bacd4b8a0c784de"

#: sha256 of `gen --series SERIES --order 64 --format json --normalization NORM`
GEN_64_SHA256 = {
    ("B", "plain"): "ae5144d420796a4532601469ecbb92ecd65015d8b28f2630f0edb677be685739",
    ("B", "factorial"): "15e576a932c960aae52966dc057f74cf3a69f62c5d7fd4c2df595564f6d71847",
    ("S", "plain"): "570307439fd8c2a1d04fe499dd7316bd5a310de25e90b6d6e7a2cc755ed21bb7",
    ("S", "factorial"): "bc25a1ec048955838b71ec357fd6fccb6de6fbd14cd4ab0d7ea38fed3558aab4",
    ("B2", "plain"): "5492d137884a2ce9184fd3cf30cc10ab7af70729fbc9a79bfc262513ba2ecefa",
    ("B2", "factorial"): "33f322d972e13e434a42bfd112e2ac1f4d3e755c5e28eb0b827d276401080c63",
    ("S2", "plain"): "7b35878d08a426ab4261f88c6560e884a7599a67ab542525eb252a1f26a5f6b1",
    ("S2", "factorial"): "ee241ab1e5cc740f5e2b2383efb480ab76b56e9d62c6108a551d751656fdc088",
    ("BS", "plain"): "4f54e527954d286c89bcfd88621592e5b59b505764263c32f578e0ae655ef94d",
    ("BS", "factorial"): "aa18f94cbc1bda8684d726b0d84f59edcb2b8ec203b7bf705530d5d5c3354318",
    ("WS0", "plain"): "55adddf595b376ef55f05e1662c64063b22169e70106594270629faf101ed243",
    ("WS0", "factorial"): "bebc28bc21601cb38bc586e12ba4e4204fc9aba01789792a39d1f4c0ab0e0abf",
    ("WS1", "plain"): "4f54e527954d286c89bcfd88621592e5b59b505764263c32f578e0ae655ef94d",
    ("WS1", "factorial"): "aa18f94cbc1bda8684d726b0d84f59edcb2b8ec203b7bf705530d5d5c3354318",
    ("BPLUS", "plain"): "f865d5a0b6023c807977deefdc48bab95c4a02749919c4cb2d7461152d6567d5",
    ("BPLUS", "factorial"): "d1d98f5931ba8f552d3a1f7879f8c78c8f6391a2d6912d830d751a18dfbcba9e",
    ("BMINUS", "plain"): "4170ef3ce9c127da53ad7916be756b962ab7758fed3241eacac9db8d7fd7fd9b",
    ("BMINUS", "factorial"): "55d3cbf38221f4d6d14bb79d1cbe43fb5608712ecbdafb62946d3ae83a8cf869",
}

#: sha256 of `gen --series SERIES --order 64 --format FORMAT --normalization NORM`
#: for the two text formats, keyed by (FORMAT, SERIES, NORM)
GEN_64_TEXT_SHA256 = {
    ("table", "B", "factorial"): "86023b8fe401dd2cf56a55dbcdfb96cde74a5f157d87ef6d245f6873ac27b69d",
    ("table", "B", "plain"): "af2a362b99019cdcad5c9bcb3682110fb4757713c70e1f11a14f481ace3e73fa",
    ("table", "B2", "factorial"): "645fb532c1776e102ff49b98ef5780bc367d1d2d00607e30c611f339c8e521ad",
    ("table", "B2", "plain"): "655730e0b0f271a1836fb3b772402841b69c559f12eea9b05d50024493a0b481",
    ("table", "BMINUS", "factorial"): "8f31fae9fdee7ed9da5dddb5e558c6d44ca2caf4fa88a771282932d26b5bc744",
    ("table", "BMINUS", "plain"): "1d62b2bf465c91a6aecf32901b43a5ad40385358588148218a5cda686081005e",
    ("table", "BPLUS", "factorial"): "0434511c3cd3a29753422c03655d3fa5f0550cd171293f3ade236854e74d128d",
    ("table", "BPLUS", "plain"): "e6d658902e42d259bdd051129817f3be3c2d7926b30962016585024668b506ee",
    ("table", "BS", "factorial"): "17ae24ab02ffc18acc19fd2e046b9d87116a793cbf17db1dbacf82440b64ba32",
    ("table", "BS", "plain"): "1eebdec04b80223f8a446efeecf090fb9a071a355aee1ad1ab68fae59a719c73",
    ("table", "S", "factorial"): "5e3a6b4488ca448eed9b74ae19813d54c36fcd8e2e721e10ac05bbf1d01ba4d6",
    ("table", "S", "plain"): "591bfd6ab2bc9486ad1b6e43496af3c34e73978e6c5ddab34241c99c3d77f932",
    ("table", "S2", "factorial"): "51ee10d28e76562e2ad1176f279e7bb954508472312b0079078c685fb08314ac",
    ("table", "S2", "plain"): "c32967d794167336dfd52318772192023e13507a8b67a926d28fdc3690862aba",
    ("table", "WS0", "factorial"): "5f9e49fad15e3f38b62a23f35cb5f5f5c51e3ffe82b8a778689d5172de6c4fe3",
    ("table", "WS0", "plain"): "7bf8664af8d3c8d4fa28f318b453b7dc2943d49eec612688864acb63d840e61a",
    ("table", "WS1", "factorial"): "6f12b7bb0ea3198397e83caa5aae8643a5efddbdb4c45daaa07dcf94984afc9d",
    ("table", "WS1", "plain"): "1f5068548a2db5331a9394b10c378f28a08adb575c81beb81627595dbe33d0d1",
    ("latex", "B", "factorial"): "82a8828acdf464973e0c820e64f0cf5c2673bc5170c2f534965df8fd3d8f2c42",
    ("latex", "B", "plain"): "add87d47d851b83112ad69315539eb493acc15ea9d23084139eba3b672d40daf",
    ("latex", "B2", "factorial"): "fa7384aa290dc265849ef4a7495de522ee62d1adfe14ae911ae92aa80c1836f3",
    ("latex", "B2", "plain"): "5396a85f2beb022beb78494d33310ca1b53f422acf428fcefc4efa755fe5a924",
    ("latex", "BMINUS", "factorial"): "1e6ca22787627bbaa1ef06008713f31fcbe46f75b2807a9615766fc79285a514",
    ("latex", "BMINUS", "plain"): "0968324f1c8984f164aa0ee721e1a2bf10669ffd7b941135d2f76551fe5bed82",
    ("latex", "BPLUS", "factorial"): "a3e545e7426798e9381c9d430829c6d39f4715e4c96bb9d0690bd8defb1a64a8",
    ("latex", "BPLUS", "plain"): "88e38e14921a555dc1ae9783ce0aafff3d47ba376552fe32612932a6a6a57949",
    ("latex", "BS", "factorial"): "3dd3757443be3d7f74865a8cedc7aa41c1ec032b21d0815840b3689792fbca06",
    ("latex", "BS", "plain"): "65ce76dcfc4342a6eca982d9a2120a4223b1ad0441eaa5f6cc88bceb7cee7e99",
    ("latex", "S", "factorial"): "80d3443ce48075a69ee4267714d1b05965717f72b322473a3fa89afb230c6be9",
    ("latex", "S", "plain"): "40195b6d0b48e6246a27562f7d5dafe0a668555b687704ffb7ae4a8cd8334dcc",
    ("latex", "S2", "factorial"): "5dc1efdbf62cd952e097c9c8bb9e2dac48e15a69967cccca14742a740a3d1fbd",
    ("latex", "S2", "plain"): "384b622397a1715d4017012eda1150ad98bac0487518755ec9f2f173ad5b62e2",
    ("latex", "WS0", "factorial"): "98a2bc86a15adb9c1d74c2d1833dc2d82fc9711d439a60ac763c2054f964a287",
    ("latex", "WS0", "plain"): "8e2d24acb2bc88fe033c27299bd6344de588f9f6ae49f3d437a336b8cf81b760",
    ("latex", "WS1", "factorial"): "7347e96965d391c13458ff5345f85a2049579bd79bc6fb3ebc76afcba5faa458",
    ("latex", "WS1", "plain"): "565ba293cde21f5713ab195ab7128ed42e48400b1e0c7e296ebfcb9affa4d3cd",
}

#: sha256 of `gen --series SERIES --order 128 --format json --normalization NORM`:
#: b_minus is the flip of b_plus, held byte-identical past order 64
GEN_128_SHA256 = {
    ("BPLUS", "plain"): "40faa1b8d73447d04f579cc491f6ea52b3aa940bd490f37e7c27da4dcd1907be",
    ("BPLUS", "factorial"): "a2071ad16197e1997175994c1400f3947b486ccde03834c0c52a738c736215a6",
    ("BMINUS", "plain"): "7608f50f687d882e0ba8c2537ef93dd268a96ab9e447bd36a478bed30038587d",
    ("BMINUS", "factorial"): "49ffa30fa9234dd54c68c6511b0629668c14587af276656fbb3302ff773e05be",
}

#: sha256 of `gen --series SERIES --order 256 --format json --normalization NORM`:
#: the pair at the order cap, held byte-identical through the whole recurrence
GEN_256_SHA256 = {
    ("B", "factorial"): "6208bcc5ed4241c7cd373a230901940d1227940dfcd4f1c1454b78d53da3636c",
    ("B", "plain"): "3e6a1ed59cfe07b9e61a4483d96378789224d995402a4321743400f0ee0ae554",
    ("S", "factorial"): "3a0c2d1a9d47322f41ef3ab324472df7b32a130cf66876bae215a39aff96f811",
    ("S", "plain"): "c42b0a8d4483bff8101bac4fdac948edf4e67de2d4707ed41e377ddb887dd45f",
}


#: sha256 of `eval` stdout for the request that `_eval_request(FORMULA, ORDER, KIND)`
#: writes: random moments of KIND bits, geometric moments, or all zero
EVAL_SHA256 = {
    ("maina", 2, 8): "12ae68013157e13395e12bab76834f20dcf4d402da8c2d23b19f19092dd96248",
    ("maina", 2, 256): "5693cdf1441a2985055c818b8f737a1b8bdd918d851178325a56a6cfa1da8801",
    ("maina", 2, "geometric"): "a35b38e166e7bffd0f48beb00fc3ce64b5f6cfa17322194e96510d166cef5971",
    ("maina", 12, 8): "fca01ce908dc976f964a848af9637b110d37a8c346e85ed91724d0da6ab14d40",
    ("maina", 12, 256): "fb88c06d538e38f248a55c4e6a42bfda3a3f0f87ad52084366408ae89434fc2d",
    ("maina", 12, "geometric"): "d5d64064822956b84f9a33f5fdba02d2aadd45d10dc9d31473033834176b8ced",
    ("maina", 40, 8): "2d521c1007da6270205d11bf43c7cb3663f6c590d14e88071346d8a39b3ca7bf",
    ("maina", 40, 256): "ee85330cbb9fe00dd39296025aa9bac568e3e33809f57b0ee33198ae64e005c0",
    ("maina", 40, "geometric"): "0bc282d0d6dfc586f21dfd1f07a19fbeafeded47a2e8623e76aba360bdeee7a0",
    ("main-prime", 2, 8): "ddeed086a8760d5e066adfb63cbc540d90a84c300ca079a5eb149fa2b1aeebd8",
    ("main-prime", 2, 256): "01a1551722a5323bbd9d8a4304883d9abde9c1abcc2f428addbede5d4164aa40",
    ("main-prime", 2, "geometric"): "fa8e945b8c6ab9f191251d11fc85b820e5cd90d1951fa8d63bed1f92915f1e65",
    ("main-prime", 12, 8): "14516cb005a31e54c92bea3c40537950e081ac4b94cbe3f3485ce0f756b1091e",
    ("main-prime", 12, 256): "50eccc6f6e4639e2dee394a5b9214a58d65a62c1df789b6bd186b9b4b4f66f0b",
    ("main-prime", 12, "geometric"): "9a1295f6dfbcbfd003abfcdd8c82f2790d716c5b1d70979ad64ae928105ac8e9",
    ("main-prime", 40, 8): "cb63d251c7d7d617867d9e4273363f681041aa834814e2a4ac3ae144c2fdc894",
    ("main-prime", 40, 256): "5bc4b225bb5daf64dedd74c4cdc7d158608098adbcf08f29144a652a874bf2c1",
    ("main-prime", 40, "geometric"): "632c35fe7790b83bfb756726f82f7a693606d4730c10066da9e2b513b4aca075",
    ("mainb", 2, 8): "6d324e08aed673703241d124a82f0344eaeb79c3f7782a069b79acd33f37bdc9",
    ("mainb", 2, 256): "22f3b3d8054e3e27dec026510611335d359566be10943460f9a464fca27d3329",
    ("mainb", 2, "geometric"): "ca0e90cd56f0db788bcca11eb23d8ab63f89ead8662ffb093a19b7cb04c19da9",
    ("mainb", 12, 8): "fc611400ed3f582436aef389dd96275f6d1a6b6ebd25ecf46dc1c4af72277d1f",
    ("mainb", 12, 256): "b35ef3b1ecea861067ff4275df0eada36b9016fc54f32f93ecd1fac167e40fbb",
    ("mainb", 12, "geometric"): "673b8c85f64571d2fb5055e16e7005a194e20ea4eb582d8cc40017fd60dbbd90",
    ("mainb", 40, 8): "72354227866a03f26c0d3998c2a984b785e58a50e5781dabf78240d49553dd26",
    ("mainb", 40, 256): "b5a1c7257906c8cfcaab0da24de4fec2ae5a106df760619818d6a7bb1a4811dc",
    ("mainb", 40, "geometric"): "19bb6bdcccae4eb8b1790419a9a1811838730f392105bdbb6e67388e1b9ccb64",
    ("maina", 12, "zero"): "4c80ec47f2b0087cb25a8bbd7e7ffc2df576e3fcc0150a24aadef51947a96a37",
}


def _eval_request(formula: str, order: int, kind) -> dict:
    """A seeded ``eval`` request with order + 1 moments per functional."""
    rng = random.Random(f"{formula}/{order}/{kind}")
    if kind == "geometric":
        a, b = rng.randint(-99, 99), Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        first, second = ([str(scale * 2**k) for k in range(order + 1)] for scale in (a, b))
    elif kind == "zero":
        first = second = ["0"] * (order + 1)
    else:

        def draw() -> str:
            return str(Fraction(rng.getrandbits(kind) * rng.choice((1, -1)), rng.getrandbits(kind) + 1))

        first = [draw() for _ in range(order + 1)]
        second = [draw() for _ in range(order + 1)]
    names = ("mu_c", "mu_ctau") if formula == "maina" else ("mu_c", "nu_c")
    functionals = {n: {"label": n, "moments": m} for n, m in zip(names, (first, second))}
    parity = "odd" if formula == "mainb" else "even"
    return {"parity": parity, "order": order, "formula": formula, "functionals": functionals}


def _refuse_groups(monkeypatch, *names):
    """Make the named derived-group constructions raise, on a fresh series-set cache."""
    for name in names:

        def refuse(*args, name=name):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(derived, name, refuse)
    blowup.series_set.cache_clear()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_latex_layout_carries_the_table_polynomials(self, capsys):
        code, out, _ = run(capsys, "gen", "--series", "S", "--order", "7", "--format", "latex")
        assert code == 0
        assert "(-6x - x^3)" in out
        assert "\\frac{t^{7}}{7!}" in out

    def test_low_order_even_series_is_the_constant_one(self, capsys):
        code, out, _ = run(capsys, "gen", "--series", "B", "--order", "3")
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows == ["0\t1"]

    def test_bad_selector_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--series", "Q", "--order", "8")
        assert code == 2

    def test_negative_order_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--series", "B", "--order", "-1")
        assert code == 2
        assert "order" in err

    def test_json_round_trips_through_the_parser(self, capsys, set17):
        code, out, _ = run(
            capsys, "gen", "--series", "B2", "--order", "10", "--format", "json",
            "--normalization", "plain",
        )
        assert code == 0
        series = TSeries.from_json(json.loads(out))
        assert first_difference(series, set17.b2.truncate(10)) is None

    def test_factorial_json_round_trips(self, capsys, set17):
        code, out, _ = run(capsys, "gen", "--series", "S", "--order", "9", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["normalization"] == "factorial"
        assert TSeries.from_json(data) == set17.s.truncate(9)

    def test_every_selector_generates(self, capsys):
        for selector in ("B", "S", "B2", "S2", "BS", "WS0", "WS1", "BPLUS", "BMINUS"):
            code, out, _ = run(capsys, "gen", "--series", selector, "--order", "6")
            assert code == 0, selector

    @pytest.mark.parametrize("series, normalization", sorted(GEN_64_SHA256))
    def test_exponential_series_match_the_pinned_digest(self, capsys, series, normalization):
        """Byte-identity guard for every selector, the pair and each derived group."""
        code, out, _ = run(
            capsys, "gen", "--series", series, "--order", "64", "--format", "json",
            "--normalization", normalization,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GEN_64_SHA256[series, normalization]

    @pytest.mark.parametrize("fmt, series, normalization", sorted(GEN_64_TEXT_SHA256))
    def test_the_text_formats_match_the_pinned_digest(self, capsys, fmt, series, normalization):
        code, out, _ = run(
            capsys, "gen", "--series", series, "--order", "64", "--format", fmt,
            "--normalization", normalization,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GEN_64_TEXT_SHA256[fmt, series, normalization]

    @pytest.mark.parametrize("series, normalization", sorted(GEN_128_SHA256))
    def test_the_exponential_pair_matches_the_pinned_digest_at_order_128(
        self, capsys, series, normalization
    ):
        code, out, _ = run(
            capsys, "gen", "--series", series, "--order", "128", "--format", "json",
            "--normalization", normalization,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GEN_128_SHA256[series, normalization]

    @pytest.mark.parametrize("series, normalization", sorted(GEN_256_SHA256))
    def test_the_pair_matches_the_pinned_digest_at_the_order_cap(self, capsys, series, normalization):
        assert MAX_ORDER == 256
        code, out, _ = run(
            capsys, "gen", "--series", series, "--order", "256", "--format", "json",
            "--normalization", normalization,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GEN_256_SHA256[series, normalization]

    @pytest.mark.parametrize("selector", ["B", "S"])
    def test_the_pair_builds_no_derived_series(self, capsys, monkeypatch, selector):
        _refuse_groups(monkeypatch, "derived_products", "exponential_pair", "odd_case_pair")
        code, out, err = run(capsys, "gen", "--series", selector, "--order", "12")
        assert code == 0, err

    def test_a_product_builds_neither_solved_pair(self, capsys, monkeypatch):
        _refuse_groups(monkeypatch, "exponential_pair", "odd_case_pair")
        code, out, err = run(capsys, "gen", "--series", "B2", "--order", "12")
        assert code == 0, err

    @pytest.mark.parametrize("selector", ["B", "S", "B2", "S2", "BS"])
    @pytest.mark.parametrize("normalization", ["factorial", "plain"])
    def test_the_pair_and_its_products_equal_a_build_one_order_higher(
        self, capsys, selector, normalization
    ):
        """Built at the order asked for, the pair and its products print what
        a build at order + 1, cut back to that order, prints: no entry of them
        through t^order reads an entry beyond it."""
        for order in (0, 3, 4, 5, 12, 29):
            code, out, err = run(
                capsys, "gen", "--series", selector, "--order", str(order), "--format", "json",
                "--normalization", normalization,
            )
            assert code == 0, err
            guarded = getattr(blowup.build_series_set(max(order, 4) + 1), cli.SELECTORS[selector])
            expected = guarded.truncate(order).to_json(normalization)
            assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n", (selector, order)

    @pytest.mark.parametrize("n", [4, 12, 64])
    def test_a_selector_gets_the_guard_order_exactly_when_its_set_falls_short(
        self, capsys, monkeypatch, n
    ):
        """A selector is guarded exactly when its series in the set built at n
        is known only below t^n; ``gen`` builds the set at n for the others
        and at n + 1 for a guarded one."""
        short = {sel for sel, name in cli.SELECTORS.items() if getattr(blowup.series_set(n), name).order < n}
        assert cli._GUARDED == short
        asked = []

        def recorded(internal):
            asked.append(internal)
            return blowup.series_set(internal)

        monkeypatch.setattr(cli, "series_set", recorded)
        for selector in cli.SELECTORS:
            code, _, err = run(capsys, "gen", "--series", selector, "--order", str(n))
            assert code == 0, err
        assert asked == [n + (selector in short) for selector in cli.SELECTORS]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "series.json"
        code, out, _ = run(
            capsys, "gen", "--series", "B", "--order", "6", "--format", "json",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["variable"] == "t"


class TestVerify:
    def test_all_identities_pass_and_stream_in_catalog_order(self, capsys):
        code, out, err = run(
            capsys, "verify", "--order", "8", "--bivariate-order", "8"
        )
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["identity"] for r in reports] == list(CATALOG_IDS)
        assert all(r["pass"] for r in reports)
        assert "all" in err

    def test_report_lines_without_ms_match_the_pinned_digest(self, capsys):
        """Byte-identity guard: the order-28 catalog must not change its content."""
        code, out, _ = run(capsys, "verify", "--order", "28", "--bivariate-order", "16")
        assert code == 0
        canonical = "\n".join(
            json.dumps({k: v for k, v in json.loads(line).items() if k != "ms"}, sort_keys=True)
            for line in out.splitlines()
        )
        assert hashlib.sha256(canonical.encode()).hexdigest() == VERIFY_28_SHA256

    def test_below_minimum_order_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--order", "4")
        assert code == 2

    def test_a_row_capped_below_the_request_is_named_on_stderr(self, capsys):
        """``bb`` asked for total degree 65 runs at its cap 64, and the note
        names it.  The relations row's data sits at t^2 and t^4, so its
        report at order 4 hides no order, and no note names it."""
        code, out, err = run(
            capsys, "verify", "--order", "65", "--bivariate-order", "65",
            "--identity", "relations_coefficients", "--identity", "bb",
        )
        assert code == 0
        assert [json.loads(line)["order"] for line in out.splitlines()] == [64, 4]
        assert err.splitlines() == [
            "verify: bb checked through total degree 64, below the requested 65, the row's cap",
            "verify: all 2 identities pass through their reported orders",
        ]

    def test_capped_bivariate_rows_name_their_total_degree(self):
        reports = [
            verify.VerificationReport(name, order, True, None, "h", 1.0, "s")
            for name, order in (("bb", 64), ("bbb", 64), ("bb_diagonal", 128))
        ]
        assert verify.capped_notes(reports, 128, bivariate_order=96) == [
            f"{name} checked through total degree 64, below the requested 96, the row's cap"
            for name in ("bb", "bbb")
        ]
        assert verify.capped_notes(reports, 128, bivariate_order=64) == []

    def test_identity_filter(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--order", "8", "--identity", "bb_diagonal"
        )
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["identity"] for r in reports] == ["bb_diagonal"]

    def test_unknown_identity_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--order", "8", "--identity", "nope")
        assert code == 2
        assert "nope" in err

    def test_unknown_identity_is_refused_before_any_build(self, capsys, monkeypatch):
        def build_started(order, **_):
            raise GenerationError(f"build started at order {order}")

        monkeypatch.setattr(blowup, "generate_pair", build_started)
        code, out, err = run(capsys, "verify", "--order", "128", "--identity", "nope")
        assert (code, out) == (2, "")
        assert err == "verify: unknown identity ids: nope\n"

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        from blowup_series.verify import VerificationReport

        fake = VerificationReport("bb", 8, False, None, "deadbeef", 1.0, "conjectural (series level)")
        monkeypatch.setattr(verify, "run_catalog", lambda *a, **k: [fake])
        code, out, err = run(capsys, "verify", "--order", "8")
        assert code == 1
        assert "bb" in err


class TestTable:
    def test_exact_match(self, capsys):
        code, out, err = run(capsys, "table", "--order", "16")
        assert code == 0
        report = json.loads(out.splitlines()[0])
        assert report["pass"] is True
        assert len(report["golden_hash"]) == 64
        assert "exact match" in err

    def test_insufficient_order(self, capsys):
        code, _, err = run(capsys, "table", "--order", "12")
        assert code == 2

    def test_table_builds_no_exponential_pair(self, capsys, monkeypatch):
        _refuse_groups(monkeypatch, "exponential_pair")
        code, out, err = run(capsys, "table", "--order", "16")
        assert code == 0, err
        assert json.loads(out.splitlines()[0])["pass"] is True

    def test_golden_table_is_scanned_once_for_the_report(self, capsys, monkeypatch):
        scans = []
        scan = blowup._golden_diffs

        def counted(rows):
            scans.append(1)
            return scan(rows)

        monkeypatch.setattr(blowup, "_golden_diffs", counted)
        code, out, _ = run(capsys, "table", "--order", "16")
        assert code == 0 and len(out.splitlines()) == 1
        assert len(scans) == 2  # the generation self-check and the report

    def test_the_comparison_builds_derived_series_only_through_t17(self, capsys, monkeypatch):
        """The golden rows reach t^16, so ``table --order 128`` and ``golden_diff``
        on an order-129 set build the products and the odd pair at order 17."""
        built = []
        for name in ("derived_products", "odd_case_pair"):

            def recorded(b, s, name=name, build=getattr(derived, name)):
                built.append((name, b.order))
                return build(b, s)

            monkeypatch.setattr(derived, name, recorded)
        code, out, _ = run(capsys, "table", "--order", "128")
        assert code == 0 and json.loads(out)["pass"] is True
        assert verify.golden_diff(blowup.assemble_set(*blowup.generate_pair(129))) == []
        assert sorted(set(built)) == [("derived_products", 17), ("odd_case_pair", 17)]

    def test_a_failing_report_lists_every_differing_slot(self, capsys, monkeypatch):
        products = derived.derived_products

        def bumped(b, s):
            b2, *rest = products(b, s)
            bump = TSeries.monomial(XPoly((1, 1)), 6, b2.order)
            return (b2 + bump, *rest)

        monkeypatch.setattr(derived, "derived_products", bumped)
        code, out, err = run(capsys, "table", "--order", "16")
        report, *diffs = [json.loads(line) for line in out.splitlines()]
        assert code == 1 and report["pass"] is False
        assert [(d["series"], d["t"], d["x"]) for d in diffs] == [("b2", 6, 0), ("b2", 6, 1)]
        assert report["first_mismatch"] == {
            "t": 6, "x": 0, "lhs": diffs[0]["got"], "rhs": diffs[0]["expected"]
        }
        assert err == "table: 2 coefficient slots differ from the golden table\n"


class TestEval:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize(
        "parity, formula, inserted",
        [("even", "maina", "mu_ctau"), ("even", "main-prime", "nu_c"), ("odd", "mainb", "nu_c")],
    )
    def test_eval_builds_neither_solved_pair(
        self, capsys, monkeypatch, tmp_path, parity, formula, inserted
    ):
        _refuse_groups(monkeypatch, "exponential_pair", "odd_case_pair")
        moments = {"label": "m", "moments": [str(2**k) for k in range(20)]}
        request = self._write(
            tmp_path,
            "request.json",
            {
                "parity": parity,
                "formula": formula,
                "order": 12,
                "functionals": {"mu_c": moments, inserted: moments},
            },
        )
        code, out, err = run(capsys, "eval", str(request))
        assert code == 0, err

    def test_even_geometric_request(self, capsys, tmp_path):
        request = self._write(
            tmp_path,
            "request.json",
            {
                "parity": "even",
                "order": 12,
                "functionals": {
                    "mu_c": {"label": "D_c", "moments": [str(2**k) for k in range(20)]},
                    "mu_ctau": {"label": "D_ct", "moments": ["0"] * 20},
                },
            },
        )
        code, out, _ = run(capsys, "eval", str(request))
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == "maina"
        series = TSeries.from_json(data)
        cosh = cosh_series(12)
        reference = exp_t_squared(-1, 12) * cosh * cosh
        assert first_difference(series, reference, through=12) is None

    @pytest.mark.parametrize("key", EVAL_SHA256, ids=lambda key: "-".join(map(str, key)))
    def test_output_matches_the_pinned_digest(self, capsys, tmp_path, key):
        request = self._write(tmp_path, "request.json", _eval_request(*key))
        code, out, err = run(capsys, "eval", str(request))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == EVAL_SHA256[key]
        if key[2] == "zero":
            assert json.loads(out)["valuation"] == key[1] + 1

    def test_functional_by_file_reference(self, capsys, tmp_path):
        self._write(tmp_path, "mu.json", {"label": "D_c", "moments": ["1"] * 12})
        self._write(tmp_path, "nu.json", {"label": "nu", "moments": ["0"] * 12})
        request = self._write(
            tmp_path,
            "request.json",
            {"parity": "odd", "order": 8, "functionals": {"mu_c": "mu.json", "nu_c": "nu.json"}},
        )
        code, out, _ = run(capsys, "eval", str(request))
        assert code == 0
        assert json.loads(out)["provenance"] == "mainb"

    def test_missing_inserted_functional_is_a_usage_error(self, capsys, tmp_path):
        request = self._write(
            tmp_path,
            "request.json",
            {
                "parity": "odd",
                "order": 8,
                "functionals": {"mu_c": {"label": "m", "moments": ["1"] * 12}},
            },
        )
        code, _, err = run(capsys, "eval", str(request))
        assert code == 2
        assert "nu_c" in err

    def test_malformed_json_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "eval", str(path))
        assert code == 2

    def test_insufficient_moments_name_the_required_length(self, capsys, tmp_path):
        request = self._write(
            tmp_path,
            "request.json",
            {
                "parity": "even",
                "order": 12,
                "functionals": {
                    "mu_c": {"label": "m", "moments": ["1", "1"]},
                    "mu_ctau": {"label": "m2", "moments": ["0", "0"]},
                },
            },
        )
        code, _, err = run(capsys, "eval", str(request))
        assert code == 2
        assert "moments are required" in err

    def test_zero_moments_give_the_zero_series(self, capsys, tmp_path):
        request = self._write(
            tmp_path,
            "request.json",
            {
                "parity": "even",
                "order": 10,
                "functionals": {
                    "mu_c": {"label": "z", "moments": ["0"] * 16},
                    "mu_ctau": {"label": "z2", "moments": ["0"] * 16},
                },
            },
        )
        code, out, _ = run(capsys, "eval", str(request))
        assert code == 0
        series = TSeries.from_json(json.loads(out))
        assert series.is_zero

    def test_main_prime_formula(self, capsys, tmp_path):
        request = self._write(
            tmp_path,
            "request.json",
            {
                "parity": "even",
                "order": 8,
                "formula": "main-prime",
                "functionals": {
                    "mu_c": {"label": "m", "moments": ["1"] * 12},
                    "nu_c": {"label": "n", "moments": ["2"] * 12},
                },
            },
        )
        code, out, _ = run(capsys, "eval", str(request))
        assert code == 0
        assert json.loads(out)["provenance"] == "main-prime"

    def test_orders_below_four_are_the_order_four_result_truncated(self, capsys, tmp_path):
        moments = {"label": "m", "moments": [str(k + 1) for k in range(8)]}
        for parity, formula, second in (
            ("even", "maina", "mu_ctau"),
            ("even", "main-prime", "nu_c"),
            ("odd", "mainb", "nu_c"),
        ):
            results = {}
            for order in (0, 1, 2, 4):
                request = self._write(
                    tmp_path,
                    "request.json",
                    {
                        "parity": parity,
                        "order": order,
                        "formula": formula,
                        "functionals": {"mu_c": moments, second: moments},
                    },
                )
                code, out, err = run(capsys, "eval", str(request))
                assert code == 0, (formula, order, err)
                results[order] = TSeries.from_json(json.loads(out))
            for order in (0, 1, 2):
                assert results[order].order == order
                assert results[order].to_json() == results[4].truncate(order).to_json()

    def test_malformed_requests_are_one_line_usage_errors(self, capsys, tmp_path):
        moments = {"label": "m", "moments": ["1"] * 8}
        self._write(tmp_path, "list.json", ["1", "2"])
        deep = "[" * 100000 + "]" * 100000
        (tmp_path / "deep.json").write_text(deep)
        payloads = (
            [1, 2],
            "even",
            7,
            None,
            {"parity": "even", "order": True, "functionals": {"mu_c": moments, "mu_ctau": moments}},
            {"parity": "even", "order": 2.0, "functionals": {"mu_c": moments, "mu_ctau": moments}},
            {"parity": "even", "order": 4, "functionals": {"mu_c": moments, "mu_ctau": "list.json"}},
            {
                "parity": "even",
                "order": 4,
                "functionals": {"mu_c": {"label": "m", "moments": ["1/0"]}, "mu_ctau": moments},
            },
            {"parity": "even", "order": 4, "functionals": {"mu_c": moments, "mu_ctau": "deep.json"}},
        )
        request = tmp_path / "request.json"
        for text in [json.dumps(payload) for payload in payloads] + [deep]:
            request.write_text(text)
            code, out, err = run(capsys, "eval", str(request))
            assert code == 2, text[:80]
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("eval: "), err


class TestBench:
    def test_rows_cover_generation_and_the_catalog(self, capsys):
        code, out, _ = run(capsys, "bench", "--order", "8", "--bivariate-order", "8")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["row"] == "generate"
        assert [r["row"] for r in rows[1:]] == list(CATALOG_IDS)
        assert all(isinstance(r["ms"], float) and r["ms"] >= 0 for r in rows)

    def test_below_minimum_order(self, capsys):
        code, _, _ = run(capsys, "bench", "--order", "2")
        assert code == 2

    def test_work_grows_with_order(self, capsys):
        """Generation and the suite as a whole cost strictly more at order 28
        than at order 8 (per-row comparisons are too noisy for the sub-ms
        constant-order rows, so the aggregate is what is pinned)."""

        def rows(order):
            code, out, _ = run(capsys, "bench", "--order", order)
            assert code == 0
            return [json.loads(line) for line in out.splitlines()]

        small, large = rows("8"), rows("28")
        assert small[0]["row"] == large[0]["row"] == "generate"
        assert small[0]["ms"] < large[0]["ms"]
        assert sum(r["ms"] for r in small) < sum(r["ms"] for r in large)


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_negative_bivariate_order_is_refused_before_any_build(capsys, monkeypatch, command):
    def build_started(order, **_):
        raise GenerationError(f"build started at order {order}")

    monkeypatch.setattr(blowup, "generate_pair", build_started)
    for extra in ([], ["--identity", "bb"]) if command == "verify" else ([],):
        code, out, err = run(
            capsys, command, "--order", "8", "--bivariate-order", "-1", *extra
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [f"{command}: --bivariate-order must be >= 0"]


def _fresh(args: list, tmp_path: Path, stdout=subprocess.PIPE, timeout: int = 120) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a fresh interpreter with the package on its path."""
    src = str(Path(blowup_series.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=tmp_path, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout
    )


def _with_request(argv: list, tmp_path: Path) -> list:
    """``argv`` with its ``REQUEST`` placeholder replaced by a small eval request file."""
    moments = {"label": "m", "moments": ["1"] * 8}
    request = tmp_path / "request.json"
    request.write_text(
        json.dumps(
            {"parity": "even", "order": 4, "functionals": {"mu_c": moments, "mu_ctau": moments}}
        )
    )
    return [str(request) if a == "REQUEST" else a for a in argv]


#: a fresh interpreter imports the CLI, runs ``main(argv)`` and prints every
#: module of the package then loaded (``__init__`` for the package itself),
#: and which of the watched modules the package and the command have loaded
_IMPORT_PROBE = """
import sys
bare = set(sys.modules)
import io, json
import blowup_series, blowup_series.cli
out, sys.stdout = sys.stdout, io.StringIO()
code = blowup_series.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
package = sorted(name.partition(".")[2] or "__init__" for name in sys.modules
                 if name.split(".")[0] == "blowup_series")
watched = ("hashlib", "_hashlib", "concurrent.futures", "argparse", "gettext", "locale", "dataclasses", "inspect",
           "fractions", "decimal")
out.write(json.dumps([code, package, [name for name in watched if name in set(sys.modules) - bare]]))
"""

#: the modules of the package that ``gen --series B|S --format json``, and the
#: import of the CLI, compile
_GEN_MODULES = ["__init__", "blowup", "cli", "hurwitz", "series"]
#: the standard modules that the rationals of ``algebra`` load
_ALGEBRA = ["fractions", "decimal"]
#: the package modules that ``verify``, ``table`` and ``bench`` load
_CATALOG = sorted(_GEN_MODULES + ["bivariate", "derived", "verify"])

#: the exact package modules each command loads, and what it loads of the
#: watched modules beyond what importing the CLI loads
_LOADED = (
    ([], _GEN_MODULES, []),
    (["gen", "--series", "B", "--order", "8", "--format", "json"], _GEN_MODULES, []),
    (["gen", "--series", "S", "--order", "8", "--format", "json", "--normalization", "plain"], _GEN_MODULES, []),
    (["gen", "--series", "B2", "--order", "8", "--format", "json"], sorted(_GEN_MODULES + ["derived"]), []),
    (["gen", "--series", "B", "--order", "8", "--format", "table"], sorted(_GEN_MODULES + ["algebra"]), _ALGEBRA),
    (["eval", "REQUEST"], sorted(_GEN_MODULES + ["commands", "derived", "pairing"]), _ALGEBRA),
    (["verify", "--order", "8"], _CATALOG, []),
    (["table", "--order", "16"], _CATALOG, []),
    (["bench", "--order", "4"], _CATALOG, []),
)


def test_importing_the_cli_leaves_out_the_thread_pool(tmp_path):
    """Each command loads the modules it runs and no others.  ``gen`` loads
    the univariate engine and ``cli`` alone: not the other commands' handlers
    (``commands``), the catalog (``verify``, ``bivariate``) or the pairing
    formulas.  No command loads ``hashlib`` or the OpenSSL of ``_hashlib``:
    the content hashes take the interpreter's built-in SHA-256.  ``gen --series B|S --format json`` loads neither
    the derived series (``derived``) nor the x-polynomials (``algebra``), nor
    ``fractions`` and the ``decimal`` it imports: the pair, its golden check
    and its JSON run on kernel ints.  A derived series loads ``derived``, a
    printed table ``algebra``.  A passing ``verify``, ``table`` or ``bench``
    forms no plain value either, so it loads neither ``algebra`` nor
    ``fractions``.  ``eval`` loads no catalog and no catalog handler (they
    sit in ``verify``), the catalog commands neither the pairing nor the
    ``eval`` handler (``commands``).  ``eval`` loads no ``algebra`` either: its moments are read as
    the integer pairs of their literals.  None loads ``concurrent.futures``,
    which pulls in logging; the serial catalog needs neither.  None loads ``argparse``,
    ``gettext`` or ``locale``: the command line is parsed from the option
    table.  None loads ``dataclasses`` or the ``inspect`` it pulls in: the
    records are plain classes."""
    for argv, package, loaded in _LOADED:
        result = _fresh(["-c", _IMPORT_PROBE, *_with_request(argv, tmp_path)], tmp_path)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [0, package, loaded], argv


def test_the_plain_bivariate_route_imports_what_it_needs_when_it_runs(tmp_path):
    """``bivariate`` imports no plain arithmetic: in a fresh interpreter that
    imports it alone, ``algebra`` is not loaded.  The plain bivariate type
    lives in ``algebra``: ``BiSeries`` products with an int, a ``Fraction``,
    an ``XPoly`` and another ``BiSeries``, ``first_difference_uv`` and
    ``TSeries.subst_pm`` then run."""
    probe = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from blowup_series.bivariate import UVMismatch\n"
        "before = 'blowup_series.algebra' in sys.modules\n"
        "from blowup_series.algebra import BiSeries, first_difference_uv\n"
        "from blowup_series.series import TSeries\n"
        "a = BiSeries([[1, 2], [3]], 1)\n"
        "b = a * 2 * Fraction(1, 2)\n"
        "c = a * a\n"
        "d = a * c.coeff(0, 1)\n"
        "mismatch = first_difference_uv(a, a * 3)\n"
        "pm = TSeries(0, [1, 1], 1).subst_pm(-1)\n"
        "print(json.dumps([before, first_difference_uv(a, b), isinstance(mismatch, UVMismatch),\n"
        "    mismatch.to_json(), [str(c.coeff(i, j)) for i, j in ((0, 0), (0, 1), (1, 0))],\n"
        "    str(d.coeff(1, 0)), [str(pm.coeff(i, 1 - i)) for i in (0, 1)]]))\n"
    )
    result = _fresh(["-c", probe], tmp_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [
        False, None, True, {"u": 0, "v": 0, "x": 0, "lhs": "1", "rhs": "3"}, ["1", "4", "6"], "12", ["-1", "1"]
    ]


def test_reading_a_series_set_leaves_dataclasses_unloaded(tmp_path):
    """A fresh interpreter builds a set and reads every group without
    importing ``dataclasses``; ``dataclasses.fields`` of the set, which the
    benchmark tracer reads, then names the pair."""
    probe = (
        "import json, sys\n"
        "from blowup_series import blowup\n"
        "st = blowup.series_set(8)\n"
        "for group in blowup._GROUPS: getattr(st, group)\n"
        "loaded = 'dataclasses' in sys.modules\n"
        "import dataclasses\n"
        "print(json.dumps([loaded, [f.name for f in dataclasses.fields(st)]]))\n"
    )
    result = _fresh(["-c", probe], tmp_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [False, ["b", "s"]]


@pytest.mark.parametrize(
    "argv, err",
    [
        (["verify", "--order", "8", "--identity", "nope"], "verify: unknown identity ids: nope\n"),
        (["eval", "missing.json"], "eval: [Errno 2] No such file or directory: 'missing.json'\n"),
    ],
    ids=["verify", "eval"],
)
def test_a_handler_in_commands_reports_a_usage_error_under_python_m(argv, err, tmp_path):
    """Under ``python -m`` the CLI runs as ``__main__``; the handlers in
    ``commands`` raise the usage error that this run's ``main`` catches, so
    the error is one line and exit 2, not a traceback."""
    result = _fresh(["-m", "blowup_series.cli", *argv], tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", err)


def _even_request(tmp_path: Path, mu_c: str) -> str:
    """The path of an even eval request whose ``mu_c`` is read from the path ``mu_c``."""
    moments = {"label": "m", "moments": ["1"] * 8}
    path = tmp_path / "request.json"
    path.write_text(json.dumps({"parity": "even", "order": 4, "functionals": {"mu_c": mu_c, "mu_ctau": moments}}))
    return str(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("where", ["request", "functional"])
def test_eval_refuses_a_fifo_without_opening_it(where, tmp_path):
    """A FIFO with no writer would block the open; it is refused as not a
    regular file, whether it is the request or a functional's path."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    request = str(pipe) if where == "request" else _even_request(tmp_path, "pipe")
    result = _fresh(["-m", "blowup_series.cli", "eval", request], tmp_path, timeout=20)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"eval: {pipe}: not a regular file\n")


#: a child that runs ``main(argv)`` under a 256 MB address-space limit, so an
#: unbounded read fails fast rather than filling the memory of the host
_BOUNDED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from blowup_series.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("where", ["request", "functional"])
def test_eval_refuses_a_device_without_reading_it(where, tmp_path):
    """``/dev/zero`` never ends; as the request or a functional's path it is
    refused before a byte is read."""
    request = "/dev/zero" if where == "request" else _even_request(tmp_path, "/dev/zero")
    result = _fresh(["-c", _BOUNDED_MAIN, "eval", request], tmp_path, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "eval: /dev/zero: not a regular file\n")


#: the bytes of an unreadable request and its error line, which is that of a
#: text read with universal newlines: a CR or a CRLF counts as one newline
_UNREADABLE = {
    "invalid-utf-8": (b'\xff{"parity": "even"}', "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "utf-8-bom": (b'\xef\xbb\xbf{"parity": "even"}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "utf-16": ('{"parity": "even"}'.encode("utf-16"), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "crlf": (b'{\r\n"a": 1,\r\n"b": x}', "Expecting value: line 3 column 6 (char 15)"),
    "cr": (b'{\r"a": 1,\r"b": x}', "Expecting value: line 3 column 6 (char 15)"),
}


_UNICODE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_UNICODE_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _UNICODE_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_UNICODE_TEXT, inner, max_size=3),
    max_leaves=8,
)


class TestReader:
    """``commands._load_json`` reads every ``eval`` input, the request and
    each functional given as a path, through one descriptor."""

    @pytest.mark.parametrize("case", _UNREADABLE)
    def test_an_unreadable_file_gives_its_error_line(self, capsys, tmp_path, case):
        data, line = _UNREADABLE[case]
        (tmp_path / "bad.json").write_bytes(data)
        for path in (str(tmp_path / "bad.json"), _even_request(tmp_path, "bad.json")):
            assert run(capsys, "eval", path) == (2, "", f"eval: {line}\n")

    def test_a_directory_is_not_a_regular_file(self, capsys, tmp_path):
        (tmp_path / "functional").mkdir()
        for path in (tmp_path / "functional", _even_request(tmp_path, "functional")):
            assert run(capsys, "eval", str(path)) == (2, "", f"eval: {tmp_path / 'functional'}: not a regular file\n")

    @pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs Unix sockets")
    def test_a_socket_that_cannot_be_opened_is_not_a_regular_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # a short path: a socket's name is limited to about 100 bytes
        with socket.socket(socket.AF_UNIX) as server:
            server.bind("sock")
            assert run(capsys, "eval", "sock") == (2, "", "eval: sock: not a regular file\n")

    def test_a_symlink_to_a_regular_file_is_followed(self, capsys, tmp_path):
        request = Path(_even_request(tmp_path, "mu.json"))
        (tmp_path / "mu.json").write_text(json.dumps(_MOMENTS))
        (tmp_path / "link.json").symlink_to(request)
        (tmp_path / "mu-link.json").symlink_to("mu.json")
        direct = run(capsys, "eval", str(request))
        assert direct[0] == 0 and direct[1]
        assert run(capsys, "eval", str(tmp_path / "link.json")) == direct
        assert run(capsys, "eval", _even_request(tmp_path, "mu-link.json")) == direct

    @pytest.mark.parametrize("reported", [None, 0, 1000], ids=["as-is", "no-size", "grew"])
    def test_a_functional_past_one_read_is_read_whole(self, capsys, monkeypatch, tmp_path, reported):
        """A functional file of over 64 KiB reads whole, also when ``fstat``
        gives it no size, as a ``/proc`` file does, or fewer bytes than it
        has, as when it grew after the ``fstat``."""
        moments = {"label": "m" * 40000 + "é", "moments": [str(k + 1) for k in range(12000)]}
        (tmp_path / "mu.json").write_text(json.dumps(moments, ensure_ascii=False), encoding="utf-8")
        assert (tmp_path / "mu.json").stat().st_size > 1 << 16
        inline = _even_request(tmp_path, moments)
        want = run(capsys, "eval", inline)
        assert want[0] == 0
        request = _even_request(tmp_path, "mu.json")
        if reported is not None:
            fstat = os.fstat

            def shrunk(fd):
                info = fstat(fd)
                return os.stat_result((*info[:6], min(reported, info.st_size), *info[7:]))

            monkeypatch.setattr(os, "fstat", shrunk)
        assert run(capsys, "eval", request) == want

    def test_each_file_is_opened_once_and_never_stated_by_path(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "mu.json").write_text(json.dumps(_MOMENTS))
        request = _even_request(tmp_path, "mu.json")
        calls = []
        for name in ("open", "stat", "fstat", "close"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k))
        code, out, err = run(capsys, "eval", request)
        monkeypatch.undo()
        assert code == 0, err
        assert calls == ["open", "fstat", "close"] * 2

    @given(
        st.dictionaries(_UNICODE_TEXT, _UNICODE_JSON, max_size=4),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.sampled_from([None, 1]),
    )
    @example({"é€😀": ["ü ", {"\x00": -1.5}]}, "\r\n", 1)
    def test_the_reader_equals_a_text_read(self, value, newline, indent):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "value.json"
            path.write_bytes(json.dumps(value, ensure_ascii=False, indent=indent).replace("\n", newline).encode())
            assert commands._load_json(path) == json.loads(path.read_text(encoding="utf-8")) == value

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_every_refusal_closes_its_descriptor(self, tmp_path):
        (tmp_path / "dir").mkdir()
        for name, data in (("utf.json", b"\xff"), ("bad.json", b"{not json"), ("deep.json", b"[" * 100000 + b"]" * 100000)):
            (tmp_path / name).write_bytes(data)
        refused = [tmp_path / name for name in ("dir", "missing.json", "utf.json", "bad.json", "deep.json")]
        if hasattr(os, "mkfifo"):
            os.mkfifo(tmp_path / "pipe")
            refused.append(tmp_path / "pipe")
        if os.path.exists("/dev/zero"):
            refused.append(Path("/dev/zero"))
        before = len(os.listdir("/proc/self/fd"))
        for path in refused:
            with pytest.raises((OSError, ValueError)):
                commands._load_json(path)
        assert len(os.listdir("/proc/self/fd")) == before


def test_integer_series_json_loads_no_plain_arithmetic(tmp_path):
    """Series JSON whose literals are all integers reads straight into kernel
    ints in either normalization: a fresh interpreter loads neither
    ``algebra`` nor ``fractions`` to read it."""
    probe = (
        "import json, sys\n"
        "bare = set(sys.modules)\n"
        "from blowup_series.series import TSeries\n"
        "data = {'variable': 't', 'valuation': 1, 'order': 4, 'coeffs': [['1'], [], ['0', '-7'], ['12'], ['5']]}\n"
        "read = [TSeries.from_json({**data, 'normalization': n}).h for n in ('plain', 'factorial')]\n"
        "print(json.dumps([read, [m for m in ('blowup_series.algebra', 'fractions') if m in set(sys.modules) - bare]]))\n"
    )
    result = _fresh(["-c", probe], tmp_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [
        [[[], [1], [], [0, -42], [288]], [[], [1], [], [0, -7], [12]]],
        [],
    ]


#: the first command line of each command in ``_LOADED``, in the same order
_ONE_PER_COMMAND = list({argv[0]: argv for argv, _, _ in reversed(_LOADED) if argv}.values())[::-1]


@pytest.mark.parametrize("argv", _ONE_PER_COMMAND, ids=lambda argv: argv[0])
def test_every_command_runs_in_a_fresh_interpreter(argv, tmp_path):
    """A broken import inside a handler shows only when that command runs."""
    result = _fresh(["-m", "blowup_series.cli", *_with_request(argv, tmp_path)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_the_golden_table_loads_without_importlib_resources(tmp_path):
    """The table is read from the file next to the package source, so an
    interpreter without site hooks never imports ``importlib.resources``."""
    probe = (
        "import sys, blowup_series\n"
        "blowup_series.golden_table()\n"
        "print('importlib.resources' in sys.modules)"
    )
    result = _fresh(["-S", "-c", probe], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_a_star_import_binds_every_public_name(tmp_path):
    probe = (
        "from blowup_series import *\n"
        "import blowup_series\n"
        "print([name for name in blowup_series.__all__ if name not in globals()])"
    )
    result = _fresh(["-c", probe], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestOrderCap:
    """Orders above MAX_ORDER are refused before any build starts."""

    @staticmethod
    def _argv(command, order, tmp_path):
        if command == "eval":
            moments = {"label": "m", "moments": ["1"] * 8}
            request = tmp_path / "request.json"
            request.write_text(
                json.dumps(
                    {
                        "parity": "even",
                        "order": order,
                        "functionals": {"mu_c": moments, "mu_ctau": moments},
                    }
                )
            )
            return ["eval", str(request)]
        extra = ["--series", "B"] if command == "gen" else []
        return [command, *extra, "--order", str(order)]

    @pytest.mark.parametrize("command", ["gen", "verify", "table", "bench", "eval"])
    def test_order_above_the_cap_is_refused(self, capsys, monkeypatch, tmp_path, command):
        def build_started(order, **_):
            raise GenerationError(f"build started at order {order}")

        monkeypatch.setattr(blowup, "generate_pair", build_started)
        code, out, err = run(capsys, *self._argv(command, MAX_ORDER + 1, tmp_path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and f"<= {MAX_ORDER}" in err, err
        # the cap itself is accepted: the build starts (and fails in the stub)
        code, _, err = run(capsys, *self._argv(command, MAX_ORDER, tmp_path))
        assert code == 3 and "build started" in err, err


@pytest.mark.parametrize("command", ["gen", "verify", "table", "bench", "eval"])
def test_output_into_a_missing_directory_is_one_line_and_exit_2(capsys, tmp_path, command):
    argv = {
        "gen": ["gen", "--series", "B", "--order", "6"],
        "verify": ["verify", "--order", "8", "--bivariate-order", "8"],
        "table": ["table", "--order", "16"],
        "bench": ["bench", "--order", "8", "--bivariate-order", "8"],
        "eval": TestOrderCap._argv("eval", 4, tmp_path),
    }[command]
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert err == f"{command}: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("command", ["gen", "verify", "table", "bench", "eval"])
def test_generation_failure_is_one_line_and_exit_3(capsys, monkeypatch, tmp_path, command):
    def failing(order, **_):
        raise GenerationError("stub recurrence failed", degree=7)

    monkeypatch.setattr(blowup, "generate_pair", failing)
    blowup.series_set.cache_clear()  # gen and eval go through the cached builder
    code, out, err = run(capsys, *TestOrderCap._argv(command, 16, tmp_path))
    assert (code, out) == (3, "")
    assert err == f"{command}: generation failed: stub recurrence failed (degree 7)\n"



class _FailingStream:
    """A standard stream whose ``write`` or ``flush`` raises ``error``."""

    def __init__(self, error: OSError, at: str):
        self.error, self.at = error, at

    def write(self, text: str) -> int:
        if self.at == "write":
            raise self.error
        return len(text)

    def flush(self) -> None:
        if self.at == "flush":
            raise self.error


#: a standard stream that cannot be written, and the reason its error names
_UNWRITABLE = {
    "broken-pipe-at-write": (_FailingStream(BrokenPipeError(errno.EPIPE, "Broken pipe"), "write"), "Broken pipe"),
    "broken-pipe-at-flush": (_FailingStream(BrokenPipeError(errno.EPIPE, "Broken pipe"), "flush"), "Broken pipe"),
    "disk-full": (_FailingStream(OSError(errno.ENOSPC, "No space left on device"), "flush"), "No space left on device"),
    "closed": (None, "it is closed"),
}


class TestUnwritableStreams:
    """A standard stream that cannot be written is an I/O error: one stderr
    line and exit 2, never a traceback or exit 1, which means a failed check."""

    @pytest.mark.parametrize("case", _UNWRITABLE)
    @pytest.mark.parametrize("command", ["gen", "verify", "table", "bench", "eval"])
    def test_an_unwritable_stdout_is_one_line_and_exit_2(self, capsys, monkeypatch, tmp_path, command, case):
        argv = TestOrderCap._argv(command, 16, tmp_path)
        stream, reason = _UNWRITABLE[case]
        monkeypatch.setattr(sys, "stdout", stream)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, f"{command}: cannot write stdout: {reason}\n")

    def test_help_on_an_unwritable_stdout_is_one_line_and_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        code, _, err = run(capsys, "--help")
        assert (code, err) == (2, "blowup-series: cannot write stdout: it is closed\n")

    @pytest.mark.parametrize("case", _UNWRITABLE)
    @pytest.mark.parametrize("command", ["verify", "table"])
    def test_an_unwritable_stderr_exits_2_after_the_report(self, capsys, monkeypatch, command, case):
        """The report reaches stdout; the note on stderr fails, and so does
        the error line, which is let go."""
        monkeypatch.setattr(sys, "stderr", _UNWRITABLE[case][0])
        code, out, _ = run(capsys, command, "--order", "16", *(["--bivariate-order", "4"] if command == "verify" else []))
        assert code == 2 and out.count("\n") == (18 if command == "verify" else 1)


def test_a_reader_that_closes_at_once_gives_one_line_and_exit_2(tmp_path):
    """In a fresh interpreter whose stdout is a pipe with no reader, the write
    fails with a broken pipe; neither it nor the flush at shutdown prints a
    traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        result = _fresh(["-m", "blowup_series.cli", "gen", "--series", "B", "--order", "8"], tmp_path, stdout=write)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (2, "gen: cannot write stdout: Broken pipe\n")


_MOMENTS = {"label": "m", "moments": ["1"] * 8}


def _request(**fields) -> str:
    """A valid even ``eval`` request with ``fields`` replaced."""
    functionals = {"mu_c": _MOMENTS, "mu_ctau": _MOMENTS}
    return json.dumps({"parity": "even", "order": 4, "functionals": functionals, **fields})


_ABOVE_CAP = str(MAX_ORDER + 1)

#: 1024-bit moments over 21 distinct odd denominators: the t^40 entry of the
#: result needs more digits than int -> str converts
_HUGE_MOMENTS = {"label": "m", "moments": [f"1/{2**1024 + 2 * k + 1}" for k in range(21)]}
_HUGE_RESULT = _request(order=40, functionals={"mu_c": _HUGE_MOMENTS, "mu_ctau": _HUGE_MOMENTS})

#: argv refused with exit 2 and one stderr line, and the text of the file that
#: REQUEST names; MISSING names a path in a directory that does not exist
_USAGE_ERRORS = {
    "no-command": ([], None),
    "unknown-command": (["frobnicate"], None),
    "unknown-option": (["gen", "--series", "B", "--frobnicate"], None),
    "option-without-value": (["verify", "--order"], None),
    "gen-order-not-an-int": (["gen", "--series", "B", "--order", "abc"], None),
    "gen-unknown-series": (["gen", "--series", "Q"], None),
    "verify-order-not-an-int": (["verify", "--order", "x"], None),
    "eval-without-request": (["eval"], None),
    "gen-order-below-0": (["gen", "--series", "B", "--order", "-1"], None),
    "gen-order-above-cap": (["gen", "--series", "B", "--order", _ABOVE_CAP], None),
    "verify-order-below-8": (["verify", "--order", "7"], None),
    "verify-order-above-cap": (["verify", "--order", _ABOVE_CAP], None),
    "table-order-below-16": (["table", "--order", "15"], None),
    "table-order-above-cap": (["table", "--order", _ABOVE_CAP], None),
    "bench-order-below-4": (["bench", "--order", "3"], None),
    "bench-order-above-cap": (["bench", "--order", _ABOVE_CAP], None),
    "eval-order-below-0": (["eval", "REQUEST"], _request(order=-1)),
    "eval-order-above-cap": (["eval", "REQUEST"], _request(order=MAX_ORDER + 1)),
    "verify-negative-bivariate-order": (["verify", "--bivariate-order", "-1"], None),
    "bench-negative-bivariate-order": (["bench", "--bivariate-order", "-1"], None),
    "verify-jobs-0": (["verify", "--jobs", "0"], None),
    "verify-unknown-identity": (["verify", "--identity", "no_such_identity"], None),
    "unwritable-output": (["gen", "--series", "B", "--order", "4", "--output", "MISSING"], None),
    "eval-missing-file": (["eval", "MISSING"], None),
    "eval-non-object-request": (["eval", "REQUEST"], "[1, 2]"),
    "eval-bad-parity": (["eval", "REQUEST"], _request(parity="both")),
    "eval-bad-order": (["eval", "REQUEST"], _request(order="4")),
    "eval-missing-functional": (["eval", "REQUEST"], _request(functionals={"mu_c": _MOMENTS})),
    "eval-zero-denominator": (
        ["eval", "REQUEST"],
        _request(functionals={"mu_c": {"label": "m", "moments": ["1/0"]}, "mu_ctau": _MOMENTS}),
    ),
    "eval-deeply-nested-json": (["eval", "REQUEST"], "[" * 100000 + "]" * 100000),
    "eval-result-past-the-digit-limit": (["eval", "REQUEST"], _HUGE_RESULT),
    "verify-order-empty-after-equals": (["verify", "--order="], None),
    "gen-abbreviated-option": (["gen", "--series", "B", "--ord", "4"], None),
    "eval-second-positional": (["eval", "REQUEST", "REQUEST"], _request()),
    "output-dash-value": (["gen", "--series", "B", "--output", "-x"], None),
    "output-nul-byte": (["gen", "--series", "B", "--order", "2", "--output", "a\0b"], None),
    "double-dash-is-not-an-end-of-options-marker": (["gen", "--", "--series", "B"], None),
}


class TestUsage:
    @pytest.mark.parametrize("case", _USAGE_ERRORS)
    def test_a_usage_error_is_one_line_and_exit_2(self, capsys, tmp_path, case):
        argv, request = _USAGE_ERRORS[case]
        paths = {"REQUEST": tmp_path / "request.json", "MISSING": tmp_path / "missing" / "out"}
        if request is not None:
            paths["REQUEST"].write_text(request)
        code, out, err = run(capsys, *(str(paths.get(arg, arg)) for arg in argv))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1, err

    def test_jobs_is_an_unrecognized_argument(self, capsys):
        """``--jobs`` selected nothing and is gone."""
        code, out, err = run(capsys, "verify", "--jobs", "0")
        assert (code, out) == (2, "")
        assert err == "blowup-series: error: unrecognized arguments: --jobs 0\n"

    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"], *([command, "--help"] for command in cli._COMMANDS)],
        ids=" ".join,
    )
    def test_help_names_every_argument_and_exits_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        names = cli._COMMANDS[argv[0]][2] if argv[0] in cli._COMMANDS else cli._COMMANDS
        assert set(names) <= set(re.findall(r"--[\w-]+|\w+", out))

    def test_equals_forms_and_a_repeated_identity_are_accepted(self, capsys):
        code, out, err = run(capsys, "verify", "--order=8", "--identity", "bb", "--identity", "bbb")
        assert code == 0, err
        reports = [json.loads(line) for line in out.splitlines()]
        assert [(r["identity"], r["order"]) for r in reports] == [("bb", 8), ("bbb", 8)]

    def test_the_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--order", "8", "--identity", "bb")
        assert code == 0 and len(out.splitlines()) == 1
        code, out, _ = run(capsys, "verify", "--order", "8")
        assert code == 0
        assert [json.loads(line)["identity"] for line in out.splitlines()] == list(CATALOG_IDS)

        target = tmp_path / "b.txt"
        code, out, _ = run(capsys, "gen", "--series", "B", "--order", "6", "--output", str(target))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "gen", "--series", "B", "--order", "6")
        assert code == 0 and out == target.read_text()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


# ---------------------------------------------------------------------------
# fuzzed eval requests

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

_NEAR_RATIONALS = st.sampled_from(NEAR_RATIONALS)

#: where a request breaks: a path of keys into the valid request, or None for
#: the whole document
_SLOTS = (
    ("parity",),
    ("order",),
    ("formula",),
    ("functionals",),
    ("functionals", "mu_c"),
    ("functionals", "mu_ctau", "label"),
    ("functionals", "mu_ctau", "moments"),
    ("functionals", "mu_c", "moments", 3),
)


def _malformed(slot: tuple, value) -> bool:
    """Whether ``value`` at ``slot`` leaves the even maina request invalid."""
    key = slot[-1]
    if key == "parity":
        return value != "even"
    if key == "order":
        return not (type(value) is int and 0 <= value <= MAX_ORDER)
    if key == "formula":
        return value != "maina"
    if key == "functionals":
        return not (isinstance(value, dict) and {"mu_c", "mu_ctau"} <= value.keys())
    if key == "mu_c":  # a string names a file next to the request: none, or the request
        return not (isinstance(value, dict) and {"label", "moments"} <= value.keys())
    if key == "label":
        return not isinstance(value, str)
    if key == "moments":
        return not (isinstance(value, list) and all(map(_parses, value)))
    return not _parses(value)  # one moment


def _parses(moment) -> bool:
    try:
        parse_rational(moment)
    except (ValueError, ZeroDivisionError):
        return False
    return True


@st.composite
def malformed_requests(draw) -> str:
    """The text of an eval request that must be refused with exit 2."""
    request = json.loads(_request())
    slot = draw(st.sampled_from(_SLOTS + (None,)))
    if slot is None:
        text = draw(st.text(max_size=12) | _JSON.map(json.dumps))
        try:
            parsed = json.loads(text)
        except ValueError:
            return text
        return text if not (isinstance(parsed, dict) and "parity" in parsed) else "[]"
    *path, key = slot
    parent = request
    for step in path:
        parent[step] = dict(parent[step]) if isinstance(parent[step], dict) else list(parent[step])
        parent = parent[step]
    if type(key) is str and key in parent and draw(st.booleans()):
        del parent[key]  # a missing field
    else:
        junk = _NEAR_RATIONALS if type(key) is int else _JSON
        parent[key] = draw(junk.filter(lambda value: _malformed(slot, value)))
    return json.dumps(request)


class TestEvalFuzz:
    @given(malformed_requests())
    # a result coefficient past the int -> str digit limit once exited 1
    @example(_HUGE_RESULT)
    def test_a_malformed_request_is_one_line_and_exit_2(self, request):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "request.json"
            path.write_text(request)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["eval", str(path)])
        assert (code, out.getvalue()) == (2, ""), request
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


# ---------------------------------------------------------------------------
# command lines drawn from the option table, against the argparse reference

#: values that neither parser takes: for an int, for a tuple of choices, anywhere
_BAD_INT, _BAD_CHOICE, _BAD_ANYWHERE = ("x", "", "1.5"), ("Q?",), ("-x", "--frobnicate")


def _values(kind) -> st.SearchStrategy:
    """Values of an argument of this type, as command-line text."""
    if kind is int:
        return st.integers(-300, 300).map(str)  # negative numbers are values too
    if type(kind) is tuple:
        return st.sampled_from(kind)
    # argparse drops a value of "--" as its end-of-options marker ("--output=--"
    # gives output=[]), where the table parser keeps it
    text = st.text("abz09./_=-", min_size=1, max_size=6).filter(lambda value: value != "--")
    return st.sampled_from(CATALOG_IDS) | text


@st.composite
def command_lines(draw) -> "list[str]":
    """A command line that both parsers accept: options in any order, some
    repeated, some in ``--opt=value`` form, the others left at their defaults."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    spec = cli._COMMANDS[command][2]
    names = draw(st.lists(st.sampled_from(sorted(n for n in spec if n[0] == "-")), max_size=6))
    names += [name for name, (_, default) in spec.items() if default is ... and name not in names]
    argv = [command]
    for name in draw(st.permutations(names)):
        value = draw(_values(spec[name][0]))
        dashed = value[:1] == "-" and not re.match(r"^-\d+$|^-\d*\.\d+$", value)
        if name[0] != "-":
            argv.append("./" + value if dashed else value)
        elif dashed or draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


def _roles(argv: "list[str]") -> "list[tuple[str, object]]":
    """``(role, type)`` of each token of a drawn line: the command, an option
    name, its value, an ``--opt=value`` token or the positional argument."""
    spec = cli._COMMANDS[argv[0]][2]
    roles, kind = [("command", None)], None
    for token in argv[1:]:
        if kind is not None:
            roles.append(("value", kind))
            kind = None
        elif token in spec:
            roles.append(("name", None))
            kind = spec[token][0]
        elif token.partition("=")[0] in spec:
            roles.append(("equals", spec[token.partition("=")[0]][0]))
        else:
            roles.append(("positional", None))
    return roles


def _corruptions(role: str, kind, token: str) -> "tuple[str, ...]":
    """Tokens that make a line malformed where ``token`` stood."""
    if role == "command":
        return ("frobnicate", "-x", "--order=4")
    bad = _BAD_INT if kind is int else _BAD_CHOICE if type(kind) is tuple else ()
    if role == "equals":
        name = token.partition("=")[0]
        return tuple(f"{name}={value}" for value in bad) + ("--frobnicate=4",)
    if role == "name":  # its value is left as a stray positional argument
        return _BAD_ANYWHERE + ("stray",)
    return (bad if role == "value" else ()) + _BAD_ANYWHERE


@st.composite
def corrupted_lines(draw) -> "list[str]":
    """A drawn command line with one token replaced by a malformed one."""
    argv = draw(command_lines())
    i = draw(st.integers(0, len(argv) - 1))
    role, kind = _roles(argv)[i]
    argv[i] = draw(st.sampled_from(_corruptions(role, kind, argv[i])))
    return argv


def _reference(argv: "list[str]"):
    """The argparse namespace of ``argv``, or the ``SystemExit`` and stderr of its refusal."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return vars(reference_parser().parse_args(argv))
        except SystemExit as exc:
            return exc, err.getvalue()


class TestParser:
    @given(command_lines())
    @example(["eval", "-5"])  # a negative number is a positional argument
    @example(["verify", "--identity=bb", "--identity", "bbb", "--order", "-3", "--order=9"])
    def test_a_drawn_line_gives_the_reference_namespace(self, argv):
        assert vars(cli._parse(argv)) == _reference(argv)

    @given(corrupted_lines())
    @example(["gen", "-x", "B"])  # the required option's name is lost
    @example(["eval", "-x"])  # the positional argument becomes an unknown option
    @example(["eval", "stray", "o", "r.json"])  # a second positional argument
    def test_a_corrupted_line_is_refused_by_both_parsers_alike(self, argv):
        refusal = _reference(argv)
        assert type(refusal) is tuple and refusal[0].code == 2, argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (2, ""), argv
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        if argv[0] in cli._COMMANDS:  # argparse reads "-x gen" as an option before the command
            assert err.getvalue() == refusal[1]
