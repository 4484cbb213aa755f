"""One HTTP client per side of the wire.

Every blocking hop (the span shipper, ``repro top``, library callers) goes
through :class:`repro.service.client.ServiceClient`, every event-loop hop
(the router's shard hops, a shard's cache-peer probes) through
:class:`repro.cluster.transport.ShardTransport`,
and every peer address through :func:`repro.service.client.split_base_url`.
A second hand-written HTTP path or address parser drifts from the first;
this scan of ``src/repro`` keeps there from being one.
"""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _modules() -> dict[str, str]:
    return {
        path.relative_to(PACKAGE.parent).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def _imports_http_client(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("http.client") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "http.client" or (
                node.module == "http" and any(alias.name == "client" for alias in node.names)
            ):
                return True
    return False


def test_only_the_service_client_imports_http_client():
    importers = [
        name for name, source in _modules().items() if _imports_http_client(ast.parse(source))
    ]
    assert importers == ["repro/service/client.py"]


def test_only_the_shard_transport_opens_asyncio_connections():
    openers = [name for name, source in _modules().items() if "open_connection" in source]
    assert openers == ["repro/cluster/transport.py"]


def test_urlsplit_appears_only_in_the_one_splitter():
    users = [name for name, source in _modules().items() if "urlsplit" in source]
    assert users == ["repro/service/client.py"]
    tree = ast.parse(_modules()["repro/service/client.py"])
    (splitter,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "split_base_url"
    ]
    inside = {id(node) for node in ast.walk(splitter)}
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "urlsplit"
    ]
    assert calls and all(id(node) in inside for node in calls)
