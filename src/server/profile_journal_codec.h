#ifndef CQP_SERVER_PROFILE_JOURNAL_CODEC_H_
#define CQP_SERVER_PROFILE_JOURNAL_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "storage/journal/coding.h"

namespace cqp::server {

/// Journal record payload of every ProfileStore shard (the framing + CRC
/// live in journal::FrameRecord):
///
///   put:    'P' [version u64][id lpstring][profile text lpstring]
///   remove: 'R' [version u64][id lpstring]
///
/// where lpstring = [len u32][bytes]. The older single-directory store
/// wrote the same records, which is what makes its directory migratable
/// into shard 0 of a one-shard store (docs/durability.md).
inline constexpr char kJournalOpPut = 'P';
inline constexpr char kJournalOpRemove = 'R';

struct DecodedProfileMutation {
  char op = 0;
  uint64_t version = 0;
  std::string_view id;
  std::string_view text;
};

inline std::string EncodeProfileMutation(char op, uint64_t version,
                                         const std::string& id,
                                         const std::string& text) {
  std::string payload;
  payload.reserve(1 + 8 + 4 + id.size() +
                  (op == kJournalOpPut ? 4 + text.size() : 0));
  payload.push_back(op);
  storage::PutFixed64(&payload, version);
  storage::PutLengthPrefixed(&payload, id);
  if (op == kJournalOpPut) storage::PutLengthPrefixed(&payload, text);
  return payload;
}

inline bool DecodeProfileMutation(std::string_view payload,
                                  DecodedProfileMutation* out) {
  if (payload.size() < 1 + 8) return false;
  out->op = payload[0];
  if (out->op != kJournalOpPut && out->op != kJournalOpRemove) return false;
  out->version = storage::GetFixed64(payload.data() + 1);
  size_t pos = 1 + 8;
  if (!storage::GetLengthPrefixed(payload, &pos, &out->id)) return false;
  if (out->op == kJournalOpPut) {
    if (!storage::GetLengthPrefixed(payload, &pos, &out->text)) return false;
  }
  return pos == payload.size();
}

/// Byte offset of the profile text within a put record's *payload* (past
/// the op byte, version, id and the text's own length prefix). The
/// demand-paging tier records `record_offset + kRecordHeaderBytes + this`
/// as the text's disk ref at append time.
inline size_t PutPayloadTextOffset(size_t id_size) {
  return 1 + 8 + 4 + id_size + 4;
}

}  // namespace cqp::server

#endif  // CQP_SERVER_PROFILE_JOURNAL_CODEC_H_
