// Known-bad fixture for loft-steady-state-alloc: sorted-list inserts.
//
// A list kept sorted by std::lower_bound grows through `insert`, which
// reallocates once the list outgrows its capacity just like
// `push_back`. Inside a steady-state-hot function an unannotated
// insert must be flagged.
//
// Expected: one diagnostic, on the insert below.

struct Booking
{
    unsigned long slot = 0;
};

template <typename T>
struct List
{
    T *begin();
    T *insert(T *pos, const T &v);
};

struct Scheduler
{
    List<Booking> bookings_;

    // loft-tidy: steady-state-hot
    void
    book(const Booking &b)
    {
        bookings_.insert(bookings_.begin(), b); // flagged: may grow
    }
};
