(* Shared vocabulary of the simulator.

   The envelope type that protocols used to return ([dest * payload]
   lists) is gone: protocols now *push* sends into a reusable
   {!Outbox.t}, and the engine reads them back positionally — no
   per-message allocation on the hot path.  What remains here is the
   vocabulary both sides still share: node identities, the communication
   model, and the concrete point-to-point [delivery] record the
   adversary observes. *)

type node_id = int

(* Section III-B3: point-to-point lets a Byzantine node send different
   messages to different nodes; under the local broadcast model every
   message is received identically by all neighbours (complete graph). *)
type comm_model = Point_to_point | Local_broadcast

(* A concrete src -> dst message in flight. *)
type 'msg delivery = { src : node_id; dst : node_id; msg : 'msg }
