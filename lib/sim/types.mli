(** Shared simulator vocabulary: node identities, communication models and
    the adversary's view of a concrete message in flight.

    Message *emission* lives in {!Outbox} (protocols push sends into a
    reusable buffer) and message *reception* in {!Inbox} (an indexed
    read-only view over the engine's per-round delivery arena); the old
    [envelope] list API was retired with the zero-allocation engine. *)

type node_id = int

type comm_model =
  | Point_to_point
      (** a Byzantine node may send different messages to different nodes *)
  | Local_broadcast
      (** every message is received identically by all nodes (Section
          III-B3, complete graph) *)

type 'msg delivery = { src : node_id; dst : node_id; msg : 'msg }
(** A concrete point-to-point message in flight, as observed by the
    rushing adversary ({!Adversary.view}). *)
