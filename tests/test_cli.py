import json

import pytest

from chibound.cli import EXIT_CAP, EXIT_IO, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_deterministic_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "generate", "random_gnp", "--param", "n=10",
                             "--param", "p=0.5", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "generate", "random_gnp", "--param", "n=10",
                             "--param", "p=0.5", "--seed", "42")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("complete", "--param", "n=abc"),
        ("complete", "--param", "n=true"),
        ("random_gnp", "--param", "n=5", "--param", "p=x"),
    ],
)
def test_generate_rejects_malformed_params(capsys, argv):
    code, out, err = run_cli(capsys, "generate", *argv)
    assert code == EXIT_USAGE and not out and "must be" in err


@pytest.mark.parametrize("base", ["5", "[0, 1]", '{"n": 2}'])
def test_generate_rejects_a_mycielski_base_that_is_not_a_graph(capsys, base):
    code, out, err = run_cli(capsys, "generate", "mycielski_iterate", "--param", "k=1",
                             "--param", f"base={base}")
    assert code == EXIT_USAGE and not out
    assert err.startswith("error: base must be a graph or graph text, got ")


def test_generate_over_the_vertex_cap_exits_3(capsys):
    # the ninth Mycielski step from an edge would build 1,535 vertices
    code, out, err = run_cli(capsys, "generate", "mycielski_iterate", "--param", "k=12")
    assert code == EXIT_CAP and not out
    assert "generate is capped at 1024 vertices, got 1535" in err


def test_generate_and_transform(tmp_path, capsys):
    k4 = tmp_path / "k4.g6"
    code, out, _ = run_cli(capsys, "generate", "complete", "--param", "n=4",
                           "--out", str(k4))
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "transform", "subdivide", str(k4), "--p", "1")
    assert code == EXIT_OK
    from chibound.codec import graph_from_graph6

    g = graph_from_graph6(out.strip())
    assert g.n == 10 and g.m == 12


def test_transform_orient(tmp_path, capsys):
    src = tmp_path / "c4.g6"
    run_cli(capsys, "generate", "cycle", "--param", "n=4", "--out", str(src))
    code, out, _ = run_cli(capsys, "transform", "orient", str(src))
    assert code == EXIT_OK and out.strip().startswith("&")


def test_transform_orient_follows_the_order(tmp_path, capsys):
    src = tmp_path / "p3.json"
    src.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
    code, out, _ = run_cli(capsys, "transform", "orient", str(src), "--order", "2,1,0",
                           "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"n": 3, "arcs": [[1, 0], [2, 1]]}


def test_transform_orient_rejects_a_non_integer_order_entry(tmp_path, capsys):
    src = tmp_path / "c4.g6"
    run_cli(capsys, "generate", "cycle", "--param", "n=4", "--out", str(src))
    code, out, err = run_cli(capsys, "transform", "orient", str(src), "--order", "a,b,c,d")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: --order entry 'a' is not a vertex number\n"


@pytest.mark.parametrize(
    "argv, n, m",
    [(("blowup", "--k", "2"), 8, 20), (("power", "--d", "2"), 4, 6)],
)
def test_transform_blowup_and_power(tmp_path, capsys, argv, n, m):
    src = tmp_path / "c4.g6"
    run_cli(capsys, "generate", "cycle", "--param", "n=4", "--out", str(src))
    op, *rest = argv
    code, out, _ = run_cli(capsys, "transform", op, str(src), *rest)
    assert code == EXIT_OK
    from chibound.codec import graph_from_graph6

    g = graph_from_graph6(out.strip())
    assert (g.n, g.m) == (n, m)


def test_invariant_maxdegree(tmp_path, capsys):
    path = tmp_path / "star.g6"
    run_cli(capsys, "generate", "star", "--param", "t=4", "--out", str(path))
    code, out, _ = run_cli(capsys, "invariant", str(path), "--which", "maxdegree")
    assert code == EXIT_OK
    assert json.loads(out)["results"] == {"maxdegree": {"name": "max_degree", "value": 4}}


@pytest.mark.parametrize(
    "argv, shown",
    [(("verify", "S7", "--seed", "-1"), "seed must be an int >= 0, got -1"),
     (("verify", "S7", "--jobs", "0"), "jobs must be an int >= 1, got 0"),
     (("generate", "complete", "--param", "n=3", "--seed", "-1"),
      "seed must be an int >= 0, got -1")],
)
def test_seed_and_jobs_below_range_exit_2(capsys, argv, shown):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert shown in err


def test_invariant_json(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("Bw\n")
    code, out, _ = run_cli(capsys, "invariant", str(path), "--which",
                           "chromatic,clique,avgdegree,star")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["chromatic"]["value"] == 3
    assert payload["results"]["clique"]["value"] == 3
    star = payload["results"]["star"]
    assert (star["name"], star["value"]) == ("chi_p", 3)
    assert star["certificate"]["kind"] == "chi_p" and star["certificate"]["p"] == 2


def test_invariant_cap_exit_code(tmp_path, capsys):
    from chibound.codec import graph_to_graph6
    from chibound.generators import complete

    path = tmp_path / "big.g6"
    path.write_text(graph_to_graph6(complete(18)) + "\n")
    code, _, err = run_cli(capsys, "invariant", str(path), "--which", "treedepth")
    assert code == EXIT_CAP
    assert "cap" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("B\x01\n")
    code, _, err = run_cli(capsys, "invariant", str(bad))
    assert code == EXIT_IO


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "invariant", "/nonexistent/file.g6")
    assert code == EXIT_IO


def test_holes_command(tmp_path, capsys):
    path = tmp_path / "c6.g6"
    run_cli(capsys, "generate", "cycle", "--param", "n=6", "--out", str(path))
    code, out, _ = run_cli(capsys, "holes", str(path), "--length", "6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["counts_by_length"] == {"6": 1}
    assert payload["count_at_length"] == 1
    assert payload["even_hole_free"] is False
    code, out, _ = run_cli(capsys, "holes", str(path), "--max-len", "0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["max_len"] == 0 and payload["holes"] == []


def test_holes_command_reports_length_zero(tmp_path, capsys):
    path = tmp_path / "p4.g6"
    run_cli(capsys, "generate", "path", "--param", "n=4", "--out", str(path))
    code, out, _ = run_cli(capsys, "holes", str(path), "--length", "0")
    assert code == EXIT_OK
    assert json.loads(out)["count_at_length"] == 0


def test_hom_command(tmp_path, capsys):
    c5 = tmp_path / "c5.g6"
    k3 = tmp_path / "k3.g6"
    run_cli(capsys, "generate", "cycle", "--param", "n=5", "--out", str(c5))
    run_cli(capsys, "generate", "complete", "--param", "n=3", "--out", str(k3))
    code, out, _ = run_cli(capsys, "hom", str(c5), str(k3))
    assert code == EXIT_OK
    assert json.loads(out)["exists"] is True
    code, out, _ = run_cli(capsys, "hom", str(k3), str(c5))
    assert json.loads(out)["exists"] is False


def test_hom_command_reads_json_graphs_and_digraphs(tmp_path, capsys):
    # an "arcs" object is a digraph, an "edges" object a graph taken both ways
    arc = tmp_path / "arc.json"
    edge = tmp_path / "edge.json"
    arc.write_text('{"n":2,"arcs":[[0,1]]}')
    edge.write_text('{"n":2,"edges":[[0,1]]}')
    code, out, _ = run_cli(capsys, "hom", str(arc), str(edge))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["source"] == "&AO" and payload["exists"] is True
    assert payload["mapping"] == [0, 1]
    code, out, _ = run_cli(capsys, "hom", str(edge), str(arc))
    assert code == EXIT_OK
    assert json.loads(out)["exists"] is False


def test_hom_command_reads_a_graph_whose_label_says_arcs(tmp_path, capsys):
    # digraph against graph goes by the object's keys, not by its text
    g = tmp_path / "g.json"
    g.write_text('{"n":2,"edges":[[0,1]],"label":"arcs"}')
    code, _, _ = run_cli(capsys, "invariant", str(g), "--which", "maxdegree")
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "hom", str(g), str(g))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["source"] == payload["target"] and payload["exists"] is True


def test_hom_command_never_prints_an_invalid_mapping(tmp_path, capsys, monkeypatch):
    from chibound import cli

    c5 = tmp_path / "c5.g6"
    run_cli(capsys, "generate", "cycle", "--param", "n=5", "--out", str(c5))
    # all of C5 onto vertex 0 maps every edge to a loop, which is no arc
    monkeypatch.setattr(cli, "homomorphism", lambda f, g, cap: (0,) * 5)
    out_file = tmp_path / "hom.json"
    with pytest.raises(AssertionError, match="invalid mapping"):
        main(["hom", str(c5), str(c5), "--out", str(out_file)])
    assert capsys.readouterr().out == ""
    assert not out_file.exists()


def test_dual_verify_command(tmp_path, capsys):
    from chibound.codec import digraph_to_digraph6
    from chibound.homomorphism import directed_path, transitive_tournament

    f = tmp_path / "f.d6"
    d = tmp_path / "d.d6"
    samples = tmp_path / "samples.d6"
    f.write_text(digraph_to_digraph6(directed_path(3)) + "\n")
    d.write_text(digraph_to_digraph6(transitive_tournament(2)) + "\n")
    samples.write_text(
        "\n".join(
            digraph_to_digraph6(t)
            for t in (transitive_tournament(1), transitive_tournament(2), directed_path(2))
        )
        + "\n"
    )
    code, out, _ = run_cli(capsys, "dual-verify", "--f", str(f), "--d", str(d),
                           "--samples", str(samples))
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] is True


@pytest.mark.parametrize("command", ["invariant", "hom", "dual-verify"])
def test_input_that_is_not_utf8_exits_4(tmp_path, capsys, command):
    # 0x85 starts no UTF-8 sequence: an input error, not a claim failure
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\x85Bw\n")
    good = tmp_path / "arc.d6"
    good.write_text("&AO\n")
    argv = {
        "invariant": ["invariant", str(bad)],
        "hom": ["hom", str(bad), str(good)],
        "dual-verify": ["dual-verify", "--f", str(good), "--d", str(good), "--samples", str(bad)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_IO
    assert out == "" and err.startswith(f"input error: cannot read {bad}: ")


def test_hom_strips_only_ascii_whitespace(tmp_path, capsys):
    # U+0085 is whitespace to str.strip, but no graph6 or digraph6 byte
    arc = tmp_path / "arc.d6"
    arc.write_text("&BP_ \n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "hom", str(arc), str(arc))
    assert code == EXIT_OK
    for text in ("\u0085&BP_ \n", "\u0085Bw \n"):
        arc.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "hom", str(arc), str(arc))
        assert code == EXIT_IO and err.startswith("input error: ")
        code, _, _ = run_cli(capsys, "invariant", str(arc))
        assert code == EXIT_IO


def test_dual_verify_splits_samples_at_newlines_only(tmp_path, capsys):
    f = tmp_path / "f.d6"
    d = tmp_path / "d.d6"
    samples = tmp_path / "samples.d6"
    f.write_text("&BP_\n")
    d.write_text("&AO\n")
    # CR LF line ends still read as two samples
    samples.write_text("&AO\r\n&A?\r\n", encoding="utf-8", newline="")
    code, out, _ = run_cli(capsys, "dual-verify", "--f", str(f), "--d", str(d),
                           "--samples", str(samples))
    assert code == EXIT_OK
    assert len(json.loads(out)["samples"]) == 2
    # U+0085 and U+2028 end lines for str.splitlines, but not for the codec
    samples.write_text("\x85&AO\u2028&A?\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "dual-verify", "--f", str(f), "--d", str(d),
                           "--samples", str(samples))
    assert code == EXIT_IO and err.startswith("input error: ")


def test_verify_writes_reports(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "S7", "--out", str(tmp_path))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "S7.json").read_text())
    assert report["pass"] is True
    assert report["anchor"]
    assert "S7 hole-density: PASS" in out


def test_verify_report_bytes_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli(capsys, "verify", "S1", "--seed", "5", "--out", str(out1))
    run_cli(capsys, "verify", "S1", "--seed", "5", "--out", str(out2))
    a = json.loads((out1 / "S1.json").read_text())
    b = json.loads((out2 / "S1.json").read_text())
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b
    # modulo timing, the serialized bytes agree
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_verify_all_rejects_params(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "--param", "samples=3",
                             "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert "--param" in err and out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "param, shown",
    [("max_n=7.5", "max_n must be an int >= 0, got 7.5"),
     ("max_n=true", "max_n must be an int >= 0, got True"),
     ("random_count=2.5", "random_count must be an int >= 0, got 2.5")],
)
def test_verify_rejects_malformed_suite_params(tmp_path, capsys, param, shown):
    code, out, err = run_cli(capsys, "verify", "S2", "--param", param,
                             "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert shown in err and out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "claim, param, shown",
    [("S1", "ps=[1.5]", "p must be an int >= 1, got 1.5"),
     ("S1", "ns=[true]", "n must be an int >= 2, got True"),
     ("S3", "ps=[2.5]", "p must be an int >= 0, got 2.5"),
     ("S4", 'limits={"2": 5.5}', "max_n must be an int >= 0, got 5.5"),
     ("S4", 'limits={"2.5": 5}', "p must be an int >= 1, got '2.5'"),
     ("S5", "ts=[3.5]", "t must be an int >= 2, got 3.5"),
     ("S5", "ts=[1]", "t must be an int >= 2, got 1"),
     ("S7", 'grid=[{"g": 5, "omega": 2.5, "copies": 1}]',
      "omega must be an int >= 2, got 2.5"),
     ("S9", "ks=[1.5]", "k must be an int >= 1, got 1.5"),
     ("S10", "grid=[[8, 3, 5.5]]", "g must be an int >= 3, got 5.5"),
     ("S7", 'grid=[{"g": 5}]', "grid cell must be an object with the keys g, omega and copies"),
     ("S10", "grid=[[8, 3]]", "grid cell must be a list of 3 items, got [8, 3]"),
     ("S4", "limits=5", "limits must be an object, got 5"),
     ("S1", "ps=5", "ps must be a list, got 5")],
)
def test_verify_rejects_malformed_suite_list_params(tmp_path, capsys, claim, param, shown):
    code, out, err = run_cli(capsys, "verify", claim, "--param", param,
                             "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert shown in err and out == ""
    assert not list(tmp_path.iterdir())


def test_verify_rejects_an_unknown_suite_param(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "S1", "--param", "nss=3",
                             "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert "S1 takes no parameter 'nss'" in err and out == ""
    assert not list(tmp_path.iterdir())


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--unknown-flag"])
    assert info.value.code == 2
