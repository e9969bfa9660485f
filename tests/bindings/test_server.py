"""BindingServer internals: content-type normalisation, port manufacture,
multi-binding exposure of a single dispatcher, the metrics page."""

import http.client

import numpy as np
import pytest

from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.server import BindingServer, _normalize
from repro.plugins.services import CounterService, MatMul
from repro.transport import HttpTransport, TcpTransport, TransportMessage
from repro.wsdl.extensions import SoapAddressExt, XdrAddressExt


class TestContentTypeNormalisation:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("text/xml", "text/xml"),
            ("text/xml; charset=utf-8", "text/xml"),
            ("text/xml; arrays=items", "text/xml; arrays=items"),
            ("text/xml; charset=utf-8; arrays=items", "text/xml; arrays=items"),
            ("application/x-xdr", "application/x-xdr"),
            ("multipart/related; boundary=x", "multipart/related"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert _normalize(raw) == expected


class TestMultiBindingExposure:
    @pytest.fixture
    def server(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("MatMul#0", MatMul())
        dispatcher.register("Counter#0", CounterService())
        server = BindingServer(dispatcher)
        yield server
        server.close()

    def test_same_dispatcher_over_http_and_tcp(self, server, rng):
        http = server.expose_soap_http()
        tcp = server.expose_xdr_tcp()
        from repro.encoding.registry import default_registry

        soap_codec = default_registry.get("text/xml")
        xdr_codec = default_registry.get("application/x-xdr")
        a = rng.random((3, 3))

        http_client = HttpTransport(http.url)
        response = http_client.request(TransportMessage(
            "text/xml", soap_codec.encode_call("MatMul#0", "multiply", (a, a))
        ))
        assert np.allclose(soap_codec.decode_reply(response.payload), a @ a)
        http_client.close()

        tcp_client = TcpTransport(tcp.url)
        response = tcp_client.request(TransportMessage(
            "application/x-xdr", xdr_codec.encode_call("MatMul#0", "multiply", (a, a))
        ))
        assert np.allclose(xdr_codec.decode_reply(response.payload), a @ a)
        tcp_client.close()

    def test_two_targets_one_endpoint(self, server):
        tcp = server.expose_xdr_tcp()
        from repro.encoding.registry import default_registry

        codec = default_registry.get("application/x-xdr")
        client = TcpTransport(tcp.url)
        response = client.request(TransportMessage(
            codec.content_type, codec.encode_call("Counter#0", "increment", (3,))
        ))
        assert codec.decode_reply(response.payload) == 3
        client.close()

    def test_unknown_target_maps_to_codec_fault(self, server):
        tcp = server.expose_xdr_tcp()
        from repro.encoding.registry import default_registry
        from repro.util.errors import EncodingError

        codec = default_registry.get("application/x-xdr")
        client = TcpTransport(tcp.url)
        response = client.request(TransportMessage(
            codec.content_type, codec.encode_call("Ghost#9", "op", ())
        ))
        with pytest.raises(EncodingError, match="Ghost"):
            codec.decode_reply(response.payload)
        client.close()

    def test_unknown_content_type_answers_soap_fault(self, server):
        """A bogus Content-Type must produce a decodable fault from the
        default codec, not a listener-level error, and the connection must
        stay usable."""
        from repro.soap.codec import SoapMessageCodec

        http = server.expose_soap_http()
        client = HttpTransport(http.url)
        codec = SoapMessageCodec()
        response = client.request(TransportMessage(
            "application/x-nonsense", codec.encode_call("Counter#0", "increment", (1,))
        ))
        assert response.content_type.startswith("text/xml")
        fault = codec.fault_to_exception(bytes(response.payload))
        assert fault is not None
        assert "no codec" in fault.faultstring
        # same connection, valid request: still served
        response = client.request(TransportMessage(
            "text/xml", codec.encode_call("Counter#0", "increment", (5,))
        ))
        assert codec.decode_reply(bytes(response.payload)) == 5
        client.close()

    def test_malformed_content_type_over_tcp_answers_soap_fault(self, server):
        from repro.soap.codec import SoapMessageCodec
        from repro.transport import TcpTransport

        tcp = server.expose_xdr_tcp()
        client = TcpTransport(tcp.url)
        codec = SoapMessageCodec()
        response = client.request(TransportMessage("garbage/; ;;", b"not xml"))
        fault = codec.fault_to_exception(bytes(response.payload))
        assert fault is not None
        client.close()

    def test_inproc_exposure(self, server, rng):
        from repro.transport import InProcTransport
        from repro.encoding.registry import default_registry

        listener = server.expose_inproc("bench-ep")
        codec = default_registry.get("application/x-xdr")
        client = InProcTransport(listener.url)
        a = rng.random(4)
        response = client.request(TransportMessage(
            codec.content_type, codec.encode_call("MatMul#0", "getResult", (a, a))
        ))
        expected = (a.reshape(2, 2) @ a.reshape(2, 2)).ravel()
        assert np.allclose(codec.decode_reply(response.payload), expected)

    def test_close_stops_all_listeners(self, server):
        http = server.expose_soap_http()
        server.close()
        from repro.util.errors import TransportError

        with pytest.raises(TransportError):
            HttpTransport(http.url).request(TransportMessage("text/xml", b"<x/>"))

    def test_port_helpers(self, server):
        http = server.expose_soap_http()
        tcp = server.expose_xdr_tcp()
        soap_port = BindingServer.soap_port(http, "B1", "p1")
        assert soap_port.extension_of(SoapAddressExt).location == http.url
        xdr_port = BindingServer.xdr_port(tcp, "B2", "p2", target="T#1")
        address = xdr_port.extension_of(XdrAddressExt)
        assert address.port == tcp.port
        assert address.target == "T#1"


class TestMetricsPage:
    """``expose_soap_http`` answers ``GET /metrics`` with the process
    registry in Prometheus text; other paths and methods are refused."""

    @pytest.fixture
    def http(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("Counter#0", CounterService())
        server = BindingServer(dispatcher)
        listener = server.expose_soap_http()
        connection = http.client.HTTPConnection("127.0.0.1", listener.port, timeout=5)
        yield listener, connection
        connection.close()
        server.close()

    @staticmethod
    def ask(connection, method: str, path: str) -> tuple[int, str, bytes]:
        connection.request(method, path)
        response = connection.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()

    def test_get_metrics_answers_the_exposition_text(self, http):
        listener, connection = http
        from repro.encoding.registry import default_registry

        codec = default_registry.get("text/xml")
        client = HttpTransport(listener.url)
        client.request(TransportMessage("text/xml", codec.encode_call("Counter#0", "get", ())))
        client.close()
        status, content_type, body = self.ask(connection, "GET", "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "server_requests" in body.decode("utf-8")

    def test_unknown_path_is_404_and_put_is_405(self, http):
        _listener, connection = http
        assert self.ask(connection, "GET", "/nope")[0] == 404
        assert self.ask(connection, "PUT", "/metrics")[0] == 405
