#include "sim/trace_io.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace lintime::sim {

namespace {

// ---------------------------------------------------------------------------
// Compact single-token Value encoding: nil | i<int> | s<hex-bytes> |
// [tok,tok,...] -- no whitespace, so values fit the line-oriented format.
// ---------------------------------------------------------------------------

void encode_value(std::ostream& os, const adt::Value& v) {
  if (v.is_nil()) {
    os << "nil";
  } else if (v.is_int()) {
    os << 'i' << v.as_int();
  } else if (v.is_str()) {
    os << 's';
    for (const unsigned char c : v.as_str()) {
      os << std::hex << std::setw(2) << std::setfill('0') << static_cast<int>(c) << std::dec;
    }
  } else {
    os << '[';
    const auto& vec = v.as_vec();
    for (std::size_t i = 0; i < vec.size(); ++i) {
      if (i > 0) os << ',';
      encode_value(os, vec[i]);
    }
    os << ']';
  }
}

std::string encode_value(const adt::Value& v) {
  std::ostringstream os;
  encode_value(os, v);
  return os.str();
}

adt::Value decode_value(const std::string& token, std::size_t& pos) {
  if (pos >= token.size()) throw std::invalid_argument("value token truncated: " + token);
  const char c = token[pos];
  if (c == 'n') {
    if (token.compare(pos, 3, "nil") != 0) {
      throw std::invalid_argument("bad value token: " + token);
    }
    pos += 3;
    return adt::Value::nil();
  }
  if (c == 'i') {
    ++pos;
    std::size_t used = 0;
    const std::int64_t value = std::stoll(token.substr(pos), &used);
    pos += used;
    return adt::Value{value};
  }
  if (c == 's') {
    ++pos;
    std::string out;
    while (pos + 1 < token.size() && std::isxdigit(token[pos]) &&
           std::isxdigit(token[pos + 1])) {
      out.push_back(static_cast<char>(std::stoi(token.substr(pos, 2), nullptr, 16)));
      pos += 2;
    }
    return adt::Value{out};
  }
  if (c == '[') {
    ++pos;
    adt::ValueVec vec;
    if (pos < token.size() && token[pos] == ']') {
      ++pos;
      return adt::Value{vec};
    }
    while (true) {
      vec.push_back(decode_value(token, pos));
      if (pos >= token.size()) throw std::invalid_argument("unterminated vector: " + token);
      if (token[pos] == ',') {
        ++pos;
        continue;
      }
      if (token[pos] == ']') {
        ++pos;
        return adt::Value{vec};
      }
      throw std::invalid_argument("bad vector separator in: " + token);
    }
  }
  throw std::invalid_argument("unknown value token: " + token);
}

adt::Value decode_value(const std::string& token) {
  std::size_t pos = 0;
  adt::Value v = decode_value(token, pos);
  if (pos != token.size()) throw std::invalid_argument("trailing junk in value: " + token);
  return v;
}

constexpr const char* trigger_name(Trigger t) {
  switch (t) {
    case Trigger::kInvoke: return "invoke";
    case Trigger::kMessage: return "message";
    case Trigger::kTimer: return "timer";
  }
  return "?";
}

Trigger parse_trigger(const std::string& s) {
  if (s == "invoke") return Trigger::kInvoke;
  if (s == "message") return Trigger::kMessage;
  if (s == "timer") return Trigger::kTimer;
  throw std::invalid_argument("bad trigger: " + s);
}

}  // namespace

void write_record(std::ostream& os, const RunRecord& record) {
  os << std::setprecision(17);
  os << "# lintime run record\n";
  os << "params " << record.params.n << ' ' << record.params.d << ' ' << record.params.u << ' '
     << record.params.eps << '\n';
  for (std::size_t i = 0; i < record.clock_offsets.size(); ++i) {
    os << "offset " << i << ' ' << record.clock_offsets[i] << '\n';
  }
  for (const auto& s : record.steps) {
    os << "step " << s.proc << ' ' << s.real_time << ' ' << s.clock_time << ' '
       << trigger_name(s.trigger) << ' ' << s.message_id << ' ' << s.timer_id << ' '
       << (s.responded ? 1 : 0) << ' ' << (s.op.empty() ? "-" : s.op) << ' '
       << encode_value(s.arg) << ' ' << encode_value(s.response);
    for (const auto id : s.sent_message_ids) os << ' ' << id;
    os << '\n';
  }
  for (const auto& m : record.messages) {
    os << "msg " << m.id << ' ' << m.src << ' ' << m.dst << ' ' << m.send_real << ' '
       << (m.received ? 1 : 0) << ' ' << m.recv_real << '\n';
  }
  for (const auto& op : record.ops) {
    os << "op " << op.uid << ' ' << op.proc << ' ' << op.invoke_real << ' ' << op.response_real
       << ' ' << op.op << ' ' << encode_value(op.arg) << ' ' << encode_value(op.ret) << '\n';
  }
  if (!os) throw std::ios_base::failure("write_record: stream error");
}

RunRecord read_record(std::istream& is) {
  RunRecord record;
  std::string line;
  bool saw_params = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "params") {
      ls >> record.params.n >> record.params.d >> record.params.u >> record.params.eps;
      record.clock_offsets.assign(static_cast<std::size_t>(record.params.n), 0.0);
      saw_params = true;
    } else if (kind == "offset") {
      std::size_t proc = 0;
      double c = 0;
      ls >> proc >> c;
      if (!saw_params || proc >= record.clock_offsets.size()) {
        throw std::invalid_argument("offset line out of order: " + line);
      }
      record.clock_offsets[proc] = c;
    } else if (kind == "step") {
      StepRecord s;
      std::string trigger, op, arg, response;
      int responded = 0;
      ls >> s.proc >> s.real_time >> s.clock_time >> trigger >> s.message_id >> s.timer_id >>
          responded >> op >> arg >> response;
      s.trigger = parse_trigger(trigger);
      s.responded = responded != 0;
      s.op = (op == "-") ? "" : op;
      s.arg = decode_value(arg);
      s.response = decode_value(response);
      std::uint64_t id = 0;
      while (ls >> id) s.sent_message_ids.push_back(id);
      if (!record.steps.empty() && s.real_time < record.steps.back().real_time) {
        throw std::invalid_argument("step line earlier than the step before it: " + line);
      }
      record.steps.push_back(std::move(s));
    } else if (kind == "msg") {
      MessageRecord m;
      int received = 0;
      ls >> m.id >> m.src >> m.dst >> m.send_real >> received >> m.recv_real;
      m.received = received != 0;
      record.messages.push_back(m);
    } else if (kind == "op") {
      OpRecord op;
      std::string name, arg, ret;
      ls >> op.uid >> op.proc >> op.invoke_real >> op.response_real >> name >> arg >> ret;
      op.op = name;
      op.arg = decode_value(arg);
      op.ret = decode_value(ret);
      record.ops.push_back(std::move(op));
    } else {
      throw std::invalid_argument("unknown record line: " + line);
    }
    if (ls.fail() && !ls.eof()) throw std::invalid_argument("malformed line: " + line);
  }
  if (!saw_params) throw std::invalid_argument("read_record: missing params line");
  return record;
}

std::string record_to_string(const RunRecord& record) {
  std::ostringstream os;
  write_record(os, record);
  return os.str();
}

RunRecord record_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_record(is);
}

}  // namespace lintime::sim
