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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--unknown-flag"])
    assert info.value.code == 2
