#include "attain/inject/modifier.hpp"

#include "ofp/codec.hpp"
#include "ofp/fields.hpp"
#include "ofp/fuzz.hpp"

namespace attain::inject {

namespace {

using lang::InFlightMessage;

monitor::Event base_event(monitor::EventKind kind, const ModifierContext& ctx) {
  monitor::Event event;
  event.kind = kind;
  event.time = ctx.original != nullptr ? ctx.original->timestamp : 0;
  if (ctx.original != nullptr) {
    event.connection = ctx.original->connection;
    event.direction = ctx.original->direction;
    event.message_id = ctx.original->id;
    if (const ofp::Message* payload = ctx.original->payload()) event.message_type = payload->type();
    event.length = ctx.original->length();
  }
  event.rule = ctx.rule_name;
  event.state = ctx.state_name;
  return event;
}

void record(ModifierContext& ctx, monitor::EventKind kind, std::string detail = {}) {
  if (!ctx.monitor->wants(kind)) return;
  monitor::Event event = base_event(kind, ctx);
  event.detail = std::move(detail);
  ctx.monitor->record(std::move(event));
}

void note_failure(ModifierContext& ctx, std::string what) {
  record(ctx, monitor::EventKind::EvalError, std::move(what));
}

lang::Value eval_or_default(const lang::ExprPtr& expr, const ModifierContext& ctx) {
  lang::EvalContext ectx;
  ectx.message = ctx.original;
  ectx.storage = ctx.storage;
  ectx.rng = ctx.rng;
  if (ctx.evaluator != nullptr && ctx.value_program != nullptr && !ctx.value_program->empty()) {
    lang::Value out;
    const lang::ExecStatus status = ctx.evaluator->run_value(*ctx.value_program, ectx, out);
    if (status != lang::ExecStatus::Ok) {
      // Matched-rule action failures are rare; re-raise with the oracle's
      // message so the surrounding note_failure paths stay identical.
      throw lang::EvalError(ctx.evaluator->error_detail(*ctx.value_program, ectx));
    }
    return out;
  }
  return lang::evaluate(*expr, ectx);
}

}  // namespace

bool apply_action(const lang::ActionSpec& action, OutMessageList& out,
                  ModifierContext& ctx) {
  using namespace lang;

  if (std::holds_alternative<ActDrop>(action)) {
    out.clear();
    record(ctx, monitor::EventKind::MessageDropped);
    return true;
  }
  if (std::holds_alternative<ActPass>(action)) {
    return true;  // explicit pass: the message stays in the list
  }
  if (const auto* delay = std::get_if<ActDelay>(&action)) {
    for (OutMessage& entry : out) entry.delay += delay->delay;
    record(ctx, monitor::EventKind::MessageDelayed);
    return true;
  }
  if (std::holds_alternative<ActDuplicate>(action)) {
    if (ctx.original == nullptr) return false;
    OutMessage copy;
    copy.message = *ctx.original;
    copy.message.id = ctx.next_id ? ctx.next_id() : 0;
    out.push_back(std::move(copy));
    record(ctx, monitor::EventKind::MessageDuplicated);
    return true;
  }
  if (const auto* read_meta = std::get_if<ActReadMeta>(&action)) {
    if (!ctx.monitor->wants(monitor::EventKind::ActionExecuted)) return true;
    monitor::Event event = base_event(monitor::EventKind::ActionExecuted, ctx);
    event.detail = "read_meta";
    if (ctx.original != nullptr) {
      event.detail += ": len=" + std::to_string(ctx.original->length()) +
                      (read_meta->note.empty() ? "" : " note=" + read_meta->note);
    }
    ctx.monitor->record(std::move(event));
    return true;
  }
  if (const auto* read = std::get_if<ActRead>(&action)) {
    if (ctx.original == nullptr || ctx.original->payload() == nullptr) {
      note_failure(ctx, "read(msg): payload not readable");
      return false;
    }
    if (!ctx.monitor->wants(monitor::EventKind::ActionExecuted)) return true;
    monitor::Event event = base_event(monitor::EventKind::ActionExecuted, ctx);
    event.detail = "read: " + ctx.original->payload()->summary() +
                   (read->note.empty() ? "" : " note=" + read->note);
    ctx.monitor->record(std::move(event));
    return true;
  }
  if (const auto* modify = std::get_if<ActModifyField>(&action)) {
    lang::Value value;
    try {
      value = eval_or_default(modify->value, ctx);
    } catch (const std::exception& err) {
      note_failure(ctx, std::string("modify value: ") + err.what());
      return false;
    }
    const auto* as_int = std::get_if<std::int64_t>(&value);
    if (as_int == nullptr) {
      note_failure(ctx, "modify(msg): value is not an integer");
      return false;
    }
    bool any = false;
    for (OutMessage& entry : out) {
      // mutable_payload() marks the cached wire bytes stale; the edited
      // message re-encodes lazily at delivery.
      ofp::Message* payload = entry.message.mutable_payload();
      if (payload == nullptr) continue;
      if (ofp::set_field(*payload, modify->path, static_cast<ofp::FieldValue>(*as_int))) {
        any = true;
      }
    }
    if (!any) {
      note_failure(ctx, "modify(msg): no outgoing message has field " + modify->path);
      return false;
    }
    record(ctx, monitor::EventKind::MessageModified, modify->path);
    return true;
  }
  if (const auto* redirect = std::get_if<ActModifyMeta>(&action)) {
    for (OutMessage& entry : out) entry.message.destination = redirect->new_destination;
    record(ctx, monitor::EventKind::MessageRedirected);
    return true;
  }
  if (const auto* fuzz = std::get_if<ActFuzz>(&action)) {
    if (ctx.rng == nullptr) return false;
    for (OutMessage& entry : out) {
      ofp::FuzzOptions options;
      options.bit_flips = fuzz->bit_flips;
      // mutable_wire() marks the decoded view stale; the receiver
      // re-decodes on demand (a fuzzed frame may be garbage, in which case
      // it sees raw corrupt bytes — exactly the capability's intent).
      ofp::fuzz_frame(entry.message.envelope.mutable_wire(), *ctx.rng, options);
    }
    record(ctx, monitor::EventKind::MessageFuzzed);
    return true;
  }
  if (const auto* inject = std::get_if<ActInject>(&action)) {
    if (ctx.original == nullptr) return false;
    OutMessage entry;
    InFlightMessage& msg = entry.message;
    msg.connection = ctx.original->connection;
    msg.direction = inject->direction;
    if (inject->direction == Direction::ControllerToSwitch) {
      msg.source = msg.connection.controller;
      msg.destination = msg.connection.sw;
    } else {
      msg.source = msg.connection.sw;
      msg.destination = msg.connection.controller;
    }
    msg.timestamp = ctx.original->timestamp;
    msg.id = ctx.next_id ? ctx.next_id() : 0;
    ofp::Message proto = inject->message;
    proto.xid = ctx.next_xid ? ctx.next_xid() : 0;
    msg.envelope = chan::Envelope(std::move(proto));  // wire encodes lazily
    msg.tls = ctx.original->tls;
    out.push_back(std::move(entry));
    record(ctx, monitor::EventKind::MessageInjected);
    return true;
  }
  if (const auto* send = std::get_if<ActSendStored>(&action)) {
    if (ctx.storage == nullptr) return false;
    try {
      lang::Value value;
      if (send->remove) {
        value = send->from_end ? ctx.storage->pop(send->deque) : ctx.storage->shift(send->deque);
      } else {
        value = send->from_end ? ctx.storage->examine_end(send->deque)
                               : ctx.storage->examine_front(send->deque);
      }
      const auto* stored = std::get_if<StoredMessage>(&value);
      if (stored == nullptr || !*stored) {
        note_failure(ctx, "send_stored: deque head is not a message");
        return false;
      }
      OutMessage entry;
      entry.message = **stored;
      entry.message.id = ctx.next_id ? ctx.next_id() : 0;
      out.push_back(std::move(entry));
      record(ctx, monitor::EventKind::MessageInjected, "replayed from " + send->deque);
      return true;
    } catch (const StorageError& err) {
      note_failure(ctx, err.what());
      return false;
    }
  }
  if (const auto* prepend = std::get_if<ActPrepend>(&action)) {
    try {
      lang::Value value;
      if (prepend->value) {
        value = eval_or_default(prepend->value, ctx);
      } else {
        value = std::make_shared<const InFlightMessage>(*ctx.original);
      }
      ctx.storage->prepend(prepend->deque, std::move(value));
      return true;
    } catch (const std::exception& err) {
      note_failure(ctx, err.what());
      return false;
    }
  }
  if (const auto* append = std::get_if<ActAppend>(&action)) {
    try {
      lang::Value value;
      if (append->value) {
        value = eval_or_default(append->value, ctx);
      } else {
        value = std::make_shared<const InFlightMessage>(*ctx.original);
      }
      ctx.storage->append(append->deque, std::move(value));
      return true;
    } catch (const std::exception& err) {
      note_failure(ctx, err.what());
      return false;
    }
  }
  if (const auto* shift = std::get_if<ActShift>(&action)) {
    try {
      ctx.storage->shift(shift->deque);
      return true;
    } catch (const StorageError& err) {
      note_failure(ctx, err.what());
      return false;
    }
  }
  if (const auto* pop = std::get_if<ActPop>(&action)) {
    try {
      ctx.storage->pop(pop->deque);
      return true;
    } catch (const StorageError& err) {
      note_failure(ctx, err.what());
      return false;
    }
  }
  // GoToState / Sleep / SysCmd are executor-level actions.
  note_failure(ctx, "action not handled by the message modifier: " + lang::to_string(action));
  return false;
}

}  // namespace attain::inject
