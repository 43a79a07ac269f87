//! Request/response services over the topic bus.
//!
//! The paper's pipeline (Fig. 2) uses two communication paradigms:
//! solid arrows are publish/subscribe streams, dashed arrows are a
//! **client/server** exchange (Path Planning serves route requests
//! from Path Tracking/Exploration). This module layers that paradigm
//! on the [`crate::bus::Bus`]: requests carry a correlation id and a
//! reply topic; a [`ServiceServer`] drains requests and publishes
//! typed responses; a [`ServiceClient`] matches responses back to its
//! outstanding calls.
//!
//! Like ROS services, calls are asynchronous at the transport level:
//! the client polls for the response (the virtual-time simulator has
//! no blocking).

use crate::bus::{Bus, Subscriber};
use crate::codec::{CodecError, Wire};
use crate::topic::TopicName;
use std::collections::HashMap;
use std::marker::PhantomData;

/// Wire wrapper for a service request.
#[derive(Debug, Clone, PartialEq)]
struct RequestEnvelope<R> {
    call_id: u64,
    client_id: u64,
    request: R,
}

crate::wire_struct!(RequestEnvelope<R> {
    call_id,
    client_id,
    request
});

/// Wire wrapper for a service response.
#[derive(Debug, Clone, PartialEq)]
struct ResponseEnvelope<R> {
    call_id: u64,
    client_id: u64,
    response: R,
}

crate::wire_struct!(ResponseEnvelope<R> {
    call_id,
    client_id,
    response
});

/// Server half of a service.
pub struct ServiceServer<Req, Resp> {
    bus: Bus,
    requests: Subscriber,
    response_topic: TopicName,
    _marker: PhantomData<(Req, Resp)>,
}

impl<Req: Wire, Resp: Wire> ServiceServer<Req, Resp> {
    /// Serve `request_topic`, answering on `response_topic`.
    pub fn new(bus: &Bus, request_topic: TopicName, response_topic: TopicName) -> Self {
        ServiceServer {
            bus: bus.clone(),
            requests: bus.subscribe(request_topic, 8),
            response_topic,
            _marker: PhantomData,
        }
    }

    /// Answer every queued request with `handler`. Returns how many
    /// calls were served.
    pub fn serve<F: FnMut(Req) -> Resp>(&self, mut handler: F) -> Result<usize, CodecError> {
        let mut served = 0;
        while let Some(bytes) = self.requests.recv_bytes() {
            let env: RequestEnvelope<Req> = crate::codec::from_bytes(&bytes)?;
            let response = handler(env.request);
            let out = ResponseEnvelope {
                call_id: env.call_id,
                client_id: env.client_id,
                response,
            };
            self.bus.publish(self.response_topic, &out)?;
            served += 1;
        }
        Ok(served)
    }
}

/// Client half of a service.
pub struct ServiceClient<Req, Resp> {
    bus: Bus,
    request_topic: TopicName,
    responses: Subscriber,
    client_id: u64,
    next_call: u64,
    /// Responses that arrived before being polled for.
    ready: HashMap<u64, Resp>,
    _marker: PhantomData<Req>,
}

impl<Req: Wire, Resp: Wire> ServiceClient<Req, Resp> {
    /// Connect a client. `client_id` distinguishes multiple clients of
    /// the same service (responses are broadcast on the reply topic).
    pub fn new(
        bus: &Bus,
        request_topic: TopicName,
        response_topic: TopicName,
        client_id: u64,
    ) -> Self {
        ServiceClient {
            bus: bus.clone(),
            request_topic,
            responses: bus.subscribe(response_topic, 16),
            client_id,
            next_call: 0,
            ready: HashMap::new(),
            _marker: PhantomData,
        }
    }

    /// Issue a call; returns its id for later [`ServiceClient::poll`].
    pub fn call(&mut self, request: Req) -> Result<u64, CodecError> {
        let call_id = self.next_call;
        self.next_call += 1;
        let env = RequestEnvelope {
            call_id,
            client_id: self.client_id,
            request,
        };
        self.bus.publish(self.request_topic, &env)?;
        Ok(call_id)
    }

    fn drain(&mut self) -> Result<(), CodecError> {
        while let Some(bytes) = self.responses.recv_bytes() {
            let env: ResponseEnvelope<Resp> = crate::codec::from_bytes(&bytes)?;
            if env.client_id == self.client_id {
                self.ready.insert(env.call_id, env.response);
            }
        }
        Ok(())
    }

    /// Take the response for `call_id` if it has arrived.
    pub fn poll(&mut self, call_id: u64) -> Result<Option<Resp>, CodecError> {
        self.drain()?;
        Ok(self.ready.remove(&call_id))
    }

    /// Outstanding responses buffered for this client.
    pub fn pending(&self) -> usize {
        self.ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgv_types::prelude::*;

    type PlanReq = (Point2, Point2);
    type PlanResp = Vec<Point2>;

    fn wire() -> (
        Bus,
        ServiceServer<PlanReq, PlanResp>,
        ServiceClient<PlanReq, PlanResp>,
    ) {
        let bus = Bus::new();
        let server = ServiceServer::new(&bus, TopicName::GOAL, TopicName::PLAN);
        let client = ServiceClient::new(&bus, TopicName::GOAL, TopicName::PLAN, 1);
        (bus, server, client)
    }

    #[test]
    fn call_serve_poll_roundtrip() {
        let (_bus, server, mut client) = wire();
        let id = client
            .call((Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)))
            .unwrap();
        assert_eq!(client.poll(id).unwrap(), None, "not served yet");
        let served = server
            .serve(|(from, to)| vec![from, Point2::new(0.5, 0.5), to])
            .unwrap();
        assert_eq!(served, 1);
        let path = client.poll(id).unwrap().expect("response arrived");
        assert_eq!(path.len(), 3);
        assert_eq!(path[2], Point2::new(1.0, 1.0));
        // Polling again yields nothing (consumed).
        assert_eq!(client.poll(id).unwrap(), None);
    }

    #[test]
    fn multiple_outstanding_calls_match_by_id() {
        let (_bus, server, mut client) = wire();
        let a = client
            .call((Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)))
            .unwrap();
        let b = client
            .call((Point2::new(0.0, 0.0), Point2::new(2.0, 0.0)))
            .unwrap();
        server.serve(|(_, to)| vec![to]).unwrap();
        let rb = client.poll(b).unwrap().unwrap();
        let ra = client.poll(a).unwrap().unwrap();
        assert_eq!(ra[0], Point2::new(1.0, 0.0));
        assert_eq!(rb[0], Point2::new(2.0, 0.0));
    }

    #[test]
    fn responses_are_filtered_by_client_id() {
        let bus = Bus::new();
        let server: ServiceServer<PlanReq, PlanResp> =
            ServiceServer::new(&bus, TopicName::GOAL, TopicName::PLAN);
        let mut c1: ServiceClient<PlanReq, PlanResp> =
            ServiceClient::new(&bus, TopicName::GOAL, TopicName::PLAN, 1);
        let mut c2: ServiceClient<PlanReq, PlanResp> =
            ServiceClient::new(&bus, TopicName::GOAL, TopicName::PLAN, 2);
        let id1 = c1
            .call((Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)))
            .unwrap();
        let id2 = c2
            .call((Point2::new(0.0, 0.0), Point2::new(2.0, 0.0)))
            .unwrap();
        server.serve(|(_, to)| vec![to]).unwrap();
        // Each client only sees its own response (same call ids would
        // otherwise collide: both are call 0 of their client).
        assert_eq!(id1, 0);
        assert_eq!(id2, 0);
        assert_eq!(c1.poll(id1).unwrap().unwrap()[0], Point2::new(1.0, 0.0));
        assert_eq!(c2.poll(id2).unwrap().unwrap()[0], Point2::new(2.0, 0.0));
        assert_eq!(c1.pending(), 0);
        assert_eq!(c2.pending(), 0);
    }

    #[test]
    fn server_handles_empty_queue() {
        let (_bus, server, _client) = wire();
        assert_eq!(server.serve(|_| vec![]).unwrap(), 0);
    }
}
